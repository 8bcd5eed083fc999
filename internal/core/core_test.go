package core

import (
	"math"
	"testing"

	"fdip/internal/oracle"
	"fdip/internal/prefetch"
	"fdip/internal/program"
)

// testImage builds a moderate program for end-to-end runs.
func testImage(tb testing.TB, seed int64, funcs int) *program.Image {
	tb.Helper()
	p := program.DefaultParams()
	p.Seed = seed
	p.NumFuncs = funcs
	im, err := program.Generate(p)
	if err != nil {
		tb.Fatalf("Generate: %v", err)
	}
	return im
}

func runWith(tb testing.TB, cfg Config, seed int64, funcs int) Result {
	tb.Helper()
	im := testImage(tb, seed, funcs)
	pr, err := New(cfg, im, oracle.NewWalker(im, seed+100))
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	return pr.Run()
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config, im *program.Image, walker *oracle.Walker) *Processor {
	p, err := New(cfg, im, walker)
	if err != nil {
		panic(err)
	}
	return p
}

func TestRunCompletesAndCommits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInstrs = 200_000
	r := runWith(t, cfg, 1, 100)
	if r.Committed < cfg.MaxInstrs {
		t.Fatalf("committed %d < %d (cycles %d)", r.Committed, cfg.MaxInstrs, r.Cycles)
	}
	if r.IPC <= 0.1 || r.IPC > float64(cfg.FetchWidth) {
		t.Errorf("implausible IPC %.3f", r.IPC)
	}
	if r.CondBranches == 0 || r.CTIs == 0 {
		t.Error("no branches committed")
	}
	if r.CondAccuracyPct < 55 {
		t.Errorf("conditional accuracy %.1f%% too low — predictor not learning", r.CondAccuracyPct)
	}
	if r.FTBHitRatePct < 30 {
		t.Errorf("FTB hit rate %.1f%% too low — FTB not learning", r.FTBHitRatePct)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInstrs = 100_000
	a := runWith(t, cfg, 3, 80)
	b := runWith(t, cfg, 3, 80)
	if a != b {
		t.Fatalf("same config+seed diverged:\n%v\nvs\n%v", a, b)
	}
}

func TestFDPBeatsNoPrefetchOnBigFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end performance comparison")
	}
	// Server-style program: large footprint, flat profile, wide dispatch.
	p := program.DefaultParams()
	p.Seed = 5
	p.NumFuncs = 600
	p.MaxLoopsPerFunc = 1
	p.MeanLoopTrip = 4
	p.DispatchTargets = 32
	p.DispatchZipf = 0.2
	im, err := program.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	run := func(cfg Config) Result {
		pr, err := New(cfg, im, oracle.NewWalker(im, 55))
		if err != nil {
			t.Fatal(err)
		}
		return pr.Run()
	}

	base := DefaultConfig()
	base.MaxInstrs = 400_000
	fdp := base
	fdp.Prefetch.Kind = PrefetchFDP

	rBase := run(base)
	rFDP := run(fdp)

	if rBase.MissPKI < 5 {
		t.Fatalf("baseline MissPKI %.2f too low — workload not I-bound", rBase.MissPKI)
	}
	gain := rFDP.SpeedupPctOver(rBase)
	if gain < 3 {
		t.Errorf("FDP gain %.2f%% over baseline; want noticeably positive (base IPC %.3f, fdp IPC %.3f, coverage %.1f%%)",
			gain, rBase.IPC, rFDP.IPC, rFDP.CoveragePct)
	}
	if rFDP.CoveragePct < 15 {
		t.Errorf("FDP coverage %.1f%% too low", rFDP.CoveragePct)
	}
}

func TestPrefetchersRunAndStaySane(t *testing.T) {
	for _, kind := range []PrefetcherKind{PrefetchNone, PrefetchNextLine, PrefetchStream, PrefetchFDP} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.MaxInstrs = 100_000
			cfg.Prefetch.Kind = kind
			r := runWith(t, cfg, 7, 200)
			if r.Committed < cfg.MaxInstrs {
				t.Fatalf("committed %d", r.Committed)
			}
			if kind == PrefetchNone && r.PrefetchIssued != 0 {
				t.Errorf("none issued %d prefetches", r.PrefetchIssued)
			}
			if kind != PrefetchNone && r.PrefetchIssued == 0 {
				t.Errorf("%s issued no prefetches", kind)
			}
			if r.BusUtilPct < 0 || r.BusUtilPct > 100 {
				t.Errorf("bus utilisation %.1f%%", r.BusUtilPct)
			}
		})
	}
}

func TestPerfectCacheUpperBound(t *testing.T) {
	if testing.Short() {
		t.Skip("long end-to-end run")
	}
	// A huge L1-I behaves as a perfect cache once compulsory misses
	// amortise: run long enough that capacity misses dominate the 16KB
	// machine, then check the 16MB machine loses most of them and is at
	// least as fast. The workload must have a flat (capacity-thrashing)
	// profile, hence the server-style parameters.
	p := program.DefaultParams()
	p.Seed = 9
	p.NumFuncs = 500
	p.MaxLoopsPerFunc = 1
	p.MeanLoopTrip = 4
	p.DispatchTargets = 32
	p.DispatchZipf = 0.2
	im, err := program.Generate(p)
	if err != nil {
		t.Fatal(err)
	}

	run := func(cfg Config) Result {
		pr, err := New(cfg, im, oracle.NewWalker(im, 99))
		if err != nil {
			t.Fatal(err)
		}
		return pr.Run()
	}
	small := DefaultConfig()
	small.MaxInstrs = 2_000_000
	big := small
	big.L1ISizeBytes = 1 << 24 // 16MB

	rs := run(small)
	rb := run(big)
	if rb.MissPKI > rs.MissPKI/2.5 {
		t.Errorf("16MB cache MissPKI %.2f not ≪ 16KB MissPKI %.2f", rb.MissPKI, rs.MissPKI)
	}
	if rb.IPC < rs.IPC {
		t.Errorf("bigger cache slower: %.3f < %.3f", rb.IPC, rs.IPC)
	}
}

func TestCommittedMatchesOracleStream(t *testing.T) {
	// The committed instruction stream must be exactly the oracle stream:
	// run two walkers in lockstep, one through the machine, one raw.
	im := testImage(t, 11, 60)
	const n = 50_000
	raw := oracle.NewWalker(im, 42)
	var want []uint64
	for i := 0; i < n; i++ {
		var rec oracle.Record
		raw.NextInto(&rec)
		want = append(want, rec.PC)
	}

	cfg := DefaultConfig()
	cfg.MaxInstrs = n
	pr := MustNew(cfg, im, oracle.NewWalker(im, 42))
	var got []uint64
	inner := pr.be.OnCommitRange
	ar := pr.be.Arena()
	pr.be.OnCommitRange = func(first uint32, cnt int) {
		ai := first
		for i := 0; i < cnt; i++ {
			if len(got) < n {
				got = append(got, ar.At(ai).PC)
			}
			ai = ar.Next(ai)
		}
		inner(first, cnt)
	}
	pr.Run()
	if len(got) < n {
		t.Fatalf("committed only %d of %d", len(got), n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("commit %d: pc %#x, oracle %#x", i, got[i], want[i])
		}
	}
}

func TestZeroPrefetchBufferDisablesCoverage(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInstrs = 100_000
	cfg.Prefetch.Kind = PrefetchFDP
	cfg.PrefetchBufferEntries = 0
	r := runWith(t, cfg, 13, 200)
	if r.PFBHits != 0 {
		t.Errorf("PFB hits %d with zero-entry buffer", r.PFBHits)
	}
	if r.Committed < cfg.MaxInstrs {
		t.Errorf("run did not complete: %d", r.Committed)
	}
}

func TestFTQSizeOneStillWorks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInstrs = 80_000
	cfg.FTQEntries = 1
	cfg.Prefetch.Kind = PrefetchFDP
	r := runWith(t, cfg, 15, 150)
	if r.Committed < cfg.MaxInstrs {
		t.Fatalf("committed %d", r.Committed)
	}
	// With a single-entry FTQ there are no non-head entries to prefetch.
	if r.PrefetchIssued != 0 {
		t.Errorf("FTQ=1 issued %d prefetches", r.PrefetchIssued)
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Prefetch.Kind = "warlock"
	im := testImage(t, 1, 20)
	if _, err := New(cfg, im, oracle.NewWalker(im, 1)); err == nil {
		t.Error("unknown prefetcher accepted")
	}
	cfg = DefaultConfig()
	cfg.LineBytes = 48
	if _, err := New(cfg, im, oracle.NewWalker(im, 1)); err == nil {
		t.Error("non-power-of-two line accepted")
	}
	cfg = Config{}
	if err := cfg.Validate(); err != nil {
		t.Errorf("zero config invalid: %v", err)
	}
	if cfg.MaxCycles == 0 || cfg.Prefetch.Kind != PrefetchNone {
		t.Error("defaults not filled")
	}
}

// TestValidateTableCeiling: every count that sizes a table is accepted at
// maxTableEntries and refused one above it, by Validate alone.
func TestValidateTableCeiling(t *testing.T) {
	fields := map[string]func(*Config, int){
		"l1i-lines":      func(c *Config, n int) { c.L1ISizeBytes = n * c.LineBytes },
		"l2-lines":       func(c *Config, n int) { c.Mem.L2SizeBytes = n * c.LineBytes },
		"pfb":            func(c *Config, n int) { c.PrefetchBufferEntries = n },
		"ftq":            func(c *Config, n int) { c.FTQEntries = n },
		"ftb-sets":       func(c *Config, n int) { c.FTB.Sets, c.FTB.Ways = n, 1 },
		"ftb-ways":       func(c *Config, n int) { c.FTB.Sets, c.FTB.Ways = 1, n },
		"predictor":      func(c *Config, n int) { c.PredictorSize = n },
		"ras":            func(c *Config, n int) { c.RASEntries = n },
		"rob":            func(c *Config, n int) { c.Backend.ROBSize = n },
		"pipe-cap":       func(c *Config, n int) { c.Backend.PipeCap = n },
		"nextline":       func(c *Config, n int) { c.Prefetch.NextLinePending = n },
		"streams":        func(c *Config, n int) { c.Prefetch.Streams = n },
		"stream-depth":   func(c *Config, n int) { c.Prefetch.StreamDepth = n },
		"piq":            func(c *Config, n int) { c.Prefetch.FDP.PIQSize = n },
		"mana-budget":    func(c *Config, n int) { c.Prefetch.MANA.BudgetBytes = n },
		"mana-queue":     func(c *Config, n int) { c.Prefetch.MANA.QueueSize = n },
		"shadow-decode":  func(c *Config, n int) { c.Prefetch.Shadow.DecodeQueue = n },
		"shadow-targets": func(c *Config, n int) { c.Prefetch.Shadow.TargetQueue = n },
	}
	for name, set := range fields {
		for _, n := range []int{maxTableEntries, maxTableEntries + 1} {
			cfg := DefaultConfig()
			set(&cfg, n)
			if err := cfg.Validate(); (err == nil) != (n == maxTableEntries) {
				t.Errorf("%s = %d: Validate error %v", name, n, err)
			}
		}
	}
	cfg := DefaultConfig()
	cfg.FTB.Sets, cfg.FTB.Ways = maxTableEntries/2, 4
	if err := cfg.Validate(); err == nil {
		t.Error("FTB of 2x the ceiling accepted")
	}
}

// TestValidateLatencyCeiling: every latency is accepted at maxLatency and
// refused one above it. Near MaxInt64, now + latency wrapped and a run
// finished early with a plausible, wrong Result.
func TestValidateLatencyCeiling(t *testing.T) {
	fields := map[string]func(*Config, int){
		"l2-hit":   func(c *Config, n int) { c.Mem.L2HitLatency = n },
		"memory":   func(c *Config, n int) { c.Mem.MemLatency = n },
		"bus":      func(c *Config, n int) { c.Mem.BusCyclesPerLine = n },
		"redirect": func(c *Config, n int) { c.RedirectLatency = n },
		"decode":   func(c *Config, n int) { c.Backend.DecodeLatency = n },
	}
	for name, set := range fields {
		for _, n := range []int{maxLatency, maxLatency + 1, math.MaxInt} {
			cfg := DefaultConfig()
			set(&cfg, n)
			if err := cfg.Validate(); (err == nil) != (n == maxLatency) {
				t.Errorf("%s = %d: Validate error %v", name, n, err)
			}
		}
	}
}

// TestValidateDefaultsApplied: a zero Config validates to DefaultConfig,
// except where zero is itself a legal value (a latency or skip of 0, an
// empty prefetch buffer, a false switch) and the derived cycle cap. The
// components apply no defaults of their own, so this is the whole rule.
func TestValidateDefaultsApplied(t *testing.T) {
	var got Config
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	want := DefaultConfig()
	want.PrefetchBufferEntries = 0
	want.RedirectLatency = 0
	want.Backend.DecodeLatency = 0
	want.Prefetch.FDP.SkipHead = 0
	want.FTB.BlockOriented = false
	want.Prefetch.Shadow.PrefetchTargets = false
	want.MaxCycles = int64(want.MaxInstrs) * 100
	if got != want {
		t.Errorf("zero config validated to\n%+v\nwant\n%+v", got, want)
	}

	// A negative value takes the default even where zero is legal, except
	// the skip and the buffer, where it means none.
	neg := DefaultConfig()
	neg.RedirectLatency, neg.Backend.DecodeLatency = -1, -1
	neg.Prefetch.FDP.SkipHead, neg.PrefetchBufferEntries = -1, -1
	if err := neg.Validate(); err != nil {
		t.Fatal(err)
	}
	d := DefaultConfig()
	if neg.RedirectLatency != d.RedirectLatency || neg.Backend.DecodeLatency != d.Backend.DecodeLatency ||
		neg.Prefetch.FDP.SkipHead != 0 || neg.PrefetchBufferEntries != 0 {
		t.Errorf("negative values normalised to %+v", neg)
	}
}

// TestValidateRoundsAndClamps pins the special rules: the FTB's set count
// rounds up to a power of two, the predictor's to one of at least 2; the
// FTB block length clamps to its 5-bit field, MANA's region to [2, 64] and
// the predictor history to what the named predictor keeps; a line holds at
// least one instruction.
func TestValidateRoundsAndClamps(t *testing.T) {
	for _, tc := range []struct {
		name    string
		in, out int
		field   func(*Config) *int
	}{
		{"sets-1", 1, 1, func(c *Config) *int { return &c.FTB.Sets }},
		{"sets-3", 3, 4, func(c *Config) *int { return &c.FTB.Sets }},
		{"sets-500", 500, 512, func(c *Config) *int { return &c.FTB.Sets }},
		{"sets-2^18-1", 1<<18 - 1, 1 << 18, func(c *Config) *int { return &c.FTB.Sets }},
		{"predictor-0", 0, 4096, func(c *Config) *int { return &c.PredictorSize }},
		{"predictor-1", 1, 2, func(c *Config) *int { return &c.PredictorSize }},
		{"predictor-2", 2, 2, func(c *Config) *int { return &c.PredictorSize }},
		{"predictor-3", 3, 4, func(c *Config) *int { return &c.PredictorSize }},
		{"predictor-1024", 1024, 1024, func(c *Config) *int { return &c.PredictorSize }},
		{"predictor-1025", 1025, 2048, func(c *Config) *int { return &c.PredictorSize }},
		{"block-0", 0, 8, func(c *Config) *int { return &c.FTB.MaxBlockInstrs }},
		{"block-31", 31, 31, func(c *Config) *int { return &c.FTB.MaxBlockInstrs }},
		{"block-40", 40, 31, func(c *Config) *int { return &c.FTB.MaxBlockInstrs }},
		{"region-0", 0, 8, func(c *Config) *int { return &c.Prefetch.MANA.RegionLines }},
		{"region-1", 1, 2, func(c *Config) *int { return &c.Prefetch.MANA.RegionLines }},
		{"region-64", 64, 64, func(c *Config) *int { return &c.Prefetch.MANA.RegionLines }},
		{"region-100", 100, 64, func(c *Config) *int { return &c.Prefetch.MANA.RegionLines }},
		{"line-2", 2, 4, func(c *Config) *int { return &c.LineBytes }},
	} {
		cfg := DefaultConfig()
		*tc.field(&cfg) = tc.in
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		} else if got := *tc.field(&cfg); got != tc.out {
			t.Errorf("%s: %d validated to %d, want %d", tc.name, tc.in, got, tc.out)
		}
	}
	for _, tc := range []struct {
		name     string
		in, want uint
	}{{"hybrid", 40, 32}, {"gshare", 32, 32}, {"local", 20, 16}, {"local", 0, 12}} {
		cfg := DefaultConfig()
		cfg.PredictorName, cfg.PredictorHistBits = tc.name, tc.in
		if err := cfg.Validate(); err != nil || cfg.PredictorHistBits != tc.want {
			t.Errorf("%s history %d validated to %d, want %d (%v)", tc.name, tc.in, cfg.PredictorHistBits, tc.want, err)
		}
	}
	cfg := DefaultConfig()
	cfg.Mem.LineBytes = 64
	if err := cfg.Validate(); err != nil || cfg.Mem.LineBytes != cfg.LineBytes {
		t.Errorf("Mem.LineBytes not forced to LineBytes: %d, %v", cfg.Mem.LineBytes, err)
	}
	cfg = DefaultConfig()
	cfg.Prefetch.FDP.CPF = prefetch.CPFOptimistic + 1
	if err := cfg.Validate(); err == nil {
		t.Error("unknown cache-probe-filtering mode accepted")
	}
}

// TestValidateIdempotent: a validated config is a fixed point, so validating
// it again (as core.New does with a key's config) changes nothing.
func TestValidateIdempotent(t *testing.T) {
	mutations := map[string]func(*Config){
		"default":   func(*Config) {},
		"zero":      func(c *Config) { *c = Config{} },
		"mem-zero":  func(c *Config) { c.Mem = Config{}.Mem },
		"ftb-zero":  func(c *Config) { c.FTB = Config{}.FTB },
		"sets-500":  func(c *Config) { c.FTB.Sets = 500 },
		"pred-4000": func(c *Config) { c.PredictorSize = 4000 },
		"block-40":  func(c *Config) { c.FTB.MaxBlockInstrs = 40 },
		"region-1":  func(c *Config) { c.Prefetch.MANA.RegionLines = 1 },
		"negatives": func(c *Config) {
			c.RedirectLatency, c.Backend.DecodeLatency, c.Prefetch.FDP.SkipHead = -1, -1, -1
			c.PrefetchBufferEntries, c.MaxCycles = -1, -1
		},
		"huge-instrs": func(c *Config) { c.MaxInstrs = math.MaxUint64 },
	}
	for name, mutate := range mutations {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		again := cfg
		if err := again.Validate(); err != nil || again != cfg {
			t.Errorf("%s: second Validate changed\n%+v\nto\n%+v (%v)", name, cfg, again, err)
		}
	}
}

// TestValidateCycleCapSaturates: the default cycle cap, 100x MaxInstrs,
// saturates instead of wrapping. At MaxInstrs 2^62 the product wrapped to 0,
// a cap that ended every Run at once and kept skipIdle from ever jumping.
func TestValidateCycleCapSaturates(t *testing.T) {
	for _, tc := range []struct {
		instrs uint64
		cycles int64
	}{
		{math.MaxInt64 / 100, math.MaxInt64 / 100 * 100},
		{math.MaxInt64/100 + 1, math.MaxInt64},
		{1 << 62, math.MaxInt64},
		{math.MaxUint64, math.MaxInt64},
	} {
		cfg := DefaultConfig()
		cfg.MaxInstrs = tc.instrs
		if err := cfg.Validate(); err != nil {
			t.Fatalf("MaxInstrs %d: %v", tc.instrs, err)
		}
		if cfg.MaxCycles != tc.cycles {
			t.Errorf("MaxInstrs %d: MaxCycles %d, want %d", tc.instrs, cfg.MaxCycles, tc.cycles)
		}
	}
}

func TestResultStringAndSpeedup(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInstrs = 30_000
	r := runWith(t, cfg, 17, 60)
	if r.String() == "" {
		t.Error("empty String")
	}
	if got := r.SpeedupPctOver(r); got != 0 {
		t.Errorf("self speedup = %v", got)
	}
	if got := r.SpeedupPctOver(Result{}); got != 0 {
		t.Errorf("speedup over zero base = %v", got)
	}
	_ = prefetch.PortStats{}
}
