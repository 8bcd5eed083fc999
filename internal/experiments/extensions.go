package experiments

import (
	"context"
	"fmt"

	"fdip/internal/core"
	"fdip/internal/engine"
	"fdip/internal/prefetch"
	"fdip/internal/stats"
)

// This file holds the extension experiments (E12..E16): ablations beyond the
// reconstructed 1999 evaluation that probe the design decisions
// ARCHITECTURE.md calls out. They are Plan + reducer declarations over the
// same Runner/engine machinery as the main suite.

// fdpCPF returns the standard FDP+conservative-CPF machine at 16KB.
func fdpCPF() core.Config {
	cfg := core.DefaultConfig()
	cfg.Prefetch.Kind = core.PrefetchFDP
	cfg.Prefetch.FDP.CPF = prefetch.CPFConservative
	return cfg
}

// E12WrongPathPIQ ablates the redirect policy: discard queued prefetch
// candidates on a squash (the paper's policy) vs keep them in flight.
func E12WrongPathPIQ(ctx context.Context, r *Runner) (*stats.Table, error) {
	keep := fdpCPF()
	keep.Prefetch.FDP.KeepPIQOnSquash = true
	c, err := r.Collect(ctx, plan(r.suiteLarge(), core.DefaultConfig()).
		Axes(engine.Configs(
			engine.Named("discard", fdpCPF()),
			engine.Named("keep", keep),
		).WithBaseline("base", baselineConfig(16*1024))))
	if err != nil {
		return nil, err
	}
	return c.TableLong("E12 (ext): PIQ policy on redirect — discard vs keep wrong-path candidates",
		[]string{"bench", "policy", "speedup", "bus%", "useful%"}, 0,
		func(res, base core.Result) []any {
			return []any{speedupCell(res, base), res.BusUtilPct, res.UsefulPct}
		}), nil
}

// E13TagPortSweep varies the L1-I tag ports that cache-probe filtering
// steals idle cycles from. With one port the demand stream starves the
// filter; extra ports buy verification bandwidth.
func E13TagPortSweep(ctx context.Context, r *Runner) (*stats.Table, error) {
	ports := []int{1, 2, 3, 4}
	return knobSweep(ctx, r, "E13 (ext): FDP+CPF(conservative) vs L1-I tag ports, 16KB L1-I",
		fdpCPF(), engine.Vary("ports", ports, func(c *core.Config, p int) { c.L1ITagPorts = p }),
		intHeaders(ports), func(res, base core.Result) any {
			return fmt.Sprintf("%+.1f%%/%.0f%%", res.SpeedupPctOver(base), res.BusUtilPct)
		})
}

// E14FetchWidthSweep varies the fetch width: wider fetch raises the demand
// rate the prefetcher must stay ahead of. Each width has its own baseline.
func E14FetchWidthSweep(ctx context.Context, r *Runner) (*stats.Table, error) {
	widths := []int{1, 2, 4, 8}
	return pairedKnobSweep(ctx, r, "E14 (ext): FDP+CPF speedup vs fetch width, 16KB L1-I",
		engine.Vary("fw", widths, func(c *core.Config, fw int) { c.FetchWidth = fw }),
		intHeaders(widths))
}

// E15StreamGeometry sweeps the stream-buffer baseline's geometry so the
// headline comparison cannot be accused of a weak baseline.
func E15StreamGeometry(ctx context.Context, r *Runner) (*stats.Table, error) {
	shapes := [][2]int{{1, 4}, {2, 4}, {4, 4}, {8, 4}, {4, 2}, {4, 8}}
	headers := make([]string, len(shapes))
	for i, sh := range shapes {
		headers[i] = fmt.Sprintf("%dx%d", sh[0], sh[1])
	}
	return knobSweep(ctx, r, "E15 (ext): stream-buffer geometry (streams x depth), speedup at 16KB L1-I",
		core.DefaultConfig(), engine.Vary("geom", shapes, func(c *core.Config, sh [2]int) {
			c.Prefetch.Kind = core.PrefetchStream
			c.Prefetch.Streams = sh[0]
			c.Prefetch.StreamDepth = sh[1]
		}).Labeled(headers...),
		headers, speedupCell)
}

// E16PerfectBound compares FDP+CPF against the perfect-L1-I upper bound: how
// much of the total front-end opportunity fetch-directed prefetching
// captures.
func E16PerfectBound(ctx context.Context, r *Runner) (*stats.Table, error) {
	perfectCfg := core.DefaultConfig()
	perfectCfg.PerfectL1I = true
	c, err := r.Collect(ctx, plan(r.opts.Workloads, core.DefaultConfig()).
		Axes(engine.Configs(
			engine.Named("base", baselineConfig(16*1024)),
			engine.Named("fdp+cpf", fdpCPF()),
			engine.Named("perfect", perfectCfg),
		)))
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("E16 (ext): FDP+CPF vs perfect L1-I upper bound, 16KB L1-I",
		"bench", "fdp+cpf", "perfect", "captured")
	for i := range r.opts.Workloads {
		base := c.At(i, 0)
		fdp := c.At(i, 1).SpeedupPctOver(base)
		perfect := c.At(i, 2).SpeedupPctOver(base)
		captured := 0.0
		if perfect > 0.05 {
			captured = 100 * fdp / perfect
		}
		t.AddRow(c.RowLabel(i),
			fmt.Sprintf("%+.1f%%", fdp),
			fmt.Sprintf("%+.1f%%", perfect),
			fmt.Sprintf("%.0f%%", captured))
	}
	return t, nil
}

// Extensions returns the extension ablations (E12..E16) in order.
func Extensions() []Experiment {
	return []Experiment{
		{"E12", E12WrongPathPIQ},
		{"E13", E13TagPortSweep},
		{"E14", E14FetchWidthSweep},
		{"E15", E15StreamGeometry},
		{"E16", E16PerfectBound},
	}
}

// ExtendedSuite returns the reconstructed suite plus the extensions and the
// FDIP-revisited experiments.
func ExtendedSuite() []Experiment {
	return append(append(Suite(), Extensions()...), Revisited()...)
}
