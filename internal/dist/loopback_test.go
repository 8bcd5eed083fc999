package dist

import (
	"context"
	"encoding/json"
	"runtime"

	"fdip/internal/engine"
)

// collect is the ordered collector over a coordinator's Stream: one outcome
// per plan point, in enumeration order.
func collect(ctx context.Context, c *Coordinator, p *engine.Plan) ([]engine.RunOutcome, error) {
	outs := make([]engine.RunOutcome, p.Points())
	for out, err := range c.Stream(ctx, p) {
		if err != nil {
			return outs, err
		}
		outs[out.Index] = out
	}
	return outs, nil
}

// Loopback is the in-process Dialer: every Dial builds a fresh Worker with
// its own engine, memo cache, and worker slots' machines, so shards are genuinely
// isolated (no cross-shard memoisation) and tests exercise the real merge
// semantics without spawning processes. Every assignment and outcome
// round-trips through its JSON wire form (an outcome without its job, as a
// frame carries it), so in-process runs exercise the same encoding as
// cross-process ones.
type Loopback struct {
	// Workers bounds each dialed worker's simulation concurrency
	// (0 = GOMAXPROCS).
	Workers int
}

// Slots reports each dialed worker's simulation concurrency, resolving
// Workers the way the engine does.
func (l Loopback) Slots() int {
	if l.Workers > 0 {
		return l.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Dial builds a fresh in-process worker session.
func (l Loopback) Dial(ctx context.Context) (Session, error) {
	return &loopbackSession{wk: NewWorker(l.Workers)}, nil
}

type loopbackSession struct {
	wk *Worker
}

func (s *loopbackSession) Run(ctx context.Context, a Assignment, emit func(engine.RunOutcome) error) error {
	b, err := json.Marshal(a)
	if err != nil {
		return err
	}
	a = Assignment{}
	if err := json.Unmarshal(b, &a); err != nil {
		return err
	}
	return s.wk.Run(ctx, a, func(out engine.RunOutcome) error {
		b, err := json.Marshal(outcomeFrame(out).Outcome)
		if err != nil {
			return err
		}
		var back engine.WireOutcome
		if err := json.Unmarshal(b, &back); err != nil {
			return err
		}
		return emit(back.Outcome())
	})
}

func (s *loopbackSession) Close() error { return nil }
