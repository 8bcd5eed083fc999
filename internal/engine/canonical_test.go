package engine

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"fdip/internal/btb"
	"fdip/internal/core"
	"fdip/internal/memsys"
	"fdip/internal/prefetch"
)

// canonicalBase is the default FDP machine at a short budget.
func canonicalBase() core.Config {
	cfg := core.DefaultConfig()
	cfg.Prefetch.Kind = core.PrefetchFDP
	cfg.MaxInstrs = 2_000
	return cfg
}

// canonicalRows pairs a raw machine description with its canonical twin,
// one row for every field core.Config.Validate defaults, rounds, clamps or
// forces. Both sides start from canonicalBase with the row's prefetcher
// kind (FDP when empty); a nil twin is that start unchanged. The rows with
// a group of fields zeroed describe the default FDP machine in other words.
var canonicalRows = []struct {
	name      string
	kind      core.PrefetcherKind
	raw, twin func(*core.Config)
}{
	{"Mem=zero", "", func(c *core.Config) { c.Mem = memsys.Config{} }, nil},
	{"FTB=zero", "", func(c *core.Config) { c.FTB = btb.Config{BlockOriented: true} }, nil},
	{"FTB.Sets=500", "", func(c *core.Config) { c.FTB.Sets = 500 }, nil},
	{"Backend.ROBSize,IssueWidth=0", "", func(c *core.Config) { c.Backend.ROBSize, c.Backend.IssueWidth = 0, 0 }, nil},
	{"PredictorSize=4000", "", func(c *core.Config) { c.PredictorSize = 4000 }, nil},
	{"FDP.PIQSize=0", "", func(c *core.Config) { c.Prefetch.FDP.PIQSize = 0 }, nil},
	{"MANA=zero", core.PrefetchMANA, func(c *core.Config) { c.Prefetch.MANA = prefetch.MANAConfig{} }, nil},

	{"L1ISizeBytes=0", "", func(c *core.Config) { c.L1ISizeBytes = 0 }, nil},
	{"L1IWays=-1", "", func(c *core.Config) { c.L1IWays = -1 }, nil},
	{"LineBytes=0", "", func(c *core.Config) { c.LineBytes = 0 }, nil},
	{"LineBytes=2", "",
		func(c *core.Config) { c.LineBytes = 2 },
		func(c *core.Config) { c.LineBytes = 4 }},
	{"L1ITagPorts=0", "", func(c *core.Config) { c.L1ITagPorts = 0 }, nil},
	{"PrefetchBufferEntries=-5", "",
		func(c *core.Config) { c.PrefetchBufferEntries = -5 },
		func(c *core.Config) { c.PrefetchBufferEntries = 0 }},
	{"Mem.LineBytes=64", "", func(c *core.Config) { c.Mem.LineBytes = 64 }, nil},
	{"Mem.L2SizeBytes=0", "", func(c *core.Config) { c.Mem.L2SizeBytes = 0 }, nil},
	{"Mem.L2Ways=0", "", func(c *core.Config) { c.Mem.L2Ways = 0 }, nil},
	{"Mem.L2HitLatency=0", "", func(c *core.Config) { c.Mem.L2HitLatency = 0 }, nil},
	{"Mem.MemLatency=-1", "", func(c *core.Config) { c.Mem.MemLatency = -1 }, nil},
	{"Mem.BusCyclesPerLine=0", "", func(c *core.Config) { c.Mem.BusCyclesPerLine = 0 }, nil},
	{"FTQEntries=0", "", func(c *core.Config) { c.FTQEntries = 0 }, nil},
	{"FTB.Sets=3", "",
		func(c *core.Config) { c.FTB.Sets = 3 },
		func(c *core.Config) { c.FTB.Sets = 4 }},
	{"FTB.Ways=0", "", func(c *core.Config) { c.FTB.Ways = 0 }, nil},
	{"FTB.MaxBlockInstrs=0", "", func(c *core.Config) { c.FTB.MaxBlockInstrs = 0 }, nil},
	{"FTB.MaxBlockInstrs=40", "",
		func(c *core.Config) { c.FTB.MaxBlockInstrs = 40 },
		func(c *core.Config) { c.FTB.MaxBlockInstrs = 31 }},
	{"FTB.AddrBits=0", "", func(c *core.Config) { c.FTB.AddrBits = 0 }, nil},
	{"PredictorName=empty", "", func(c *core.Config) { c.PredictorName = "" }, nil},
	{"PredictorSize=0", "", func(c *core.Config) { c.PredictorSize = 0 }, nil},
	{"PredictorSize=1", "",
		func(c *core.Config) { c.PredictorSize = 1 },
		func(c *core.Config) { c.PredictorSize = 2 }},
	{"PredictorHistBits=0", "", func(c *core.Config) { c.PredictorHistBits = 0 }, nil},
	{"PredictorHistBits=40", "",
		func(c *core.Config) { c.PredictorHistBits = 40 },
		func(c *core.Config) { c.PredictorHistBits = 32 }},
	{"local,PredictorHistBits=20", "",
		func(c *core.Config) { c.PredictorName, c.PredictorHistBits = "local", 20 },
		func(c *core.Config) { c.PredictorName, c.PredictorHistBits = "local", 16 }},
	{"RASEntries=0", "", func(c *core.Config) { c.RASEntries = 0 }, nil},
	{"FetchWidth=0", "", func(c *core.Config) { c.FetchWidth = 0 }, nil},
	{"RedirectLatency=-1", "", func(c *core.Config) { c.RedirectLatency = -1 }, nil},
	{"Backend.CommitWidth=0", "", func(c *core.Config) { c.Backend.CommitWidth = 0 }, nil},
	{"Backend.IssueWindow=0", "", func(c *core.Config) { c.Backend.IssueWindow = 0 }, nil},
	{"Backend.DecodeLatency=-1", "", func(c *core.Config) { c.Backend.DecodeLatency = -1 }, nil},
	{"Backend.PipeCap=0", "", func(c *core.Config) { c.Backend.PipeCap = 0 }, nil},
	{"Prefetch.Kind=empty", core.PrefetchNone, func(c *core.Config) { c.Prefetch.Kind = "" }, nil},
	{"NextLinePending=0", core.PrefetchNextLine, func(c *core.Config) { c.Prefetch.NextLinePending = 0 }, nil},
	{"Streams=0", core.PrefetchStream, func(c *core.Config) { c.Prefetch.Streams = 0 }, nil},
	{"StreamDepth=0", core.PrefetchStream, func(c *core.Config) { c.Prefetch.StreamDepth = 0 }, nil},
	{"FDP.SkipHead=-1", "",
		func(c *core.Config) { c.Prefetch.FDP.SkipHead = -1 },
		func(c *core.Config) { c.Prefetch.FDP.SkipHead = 0 }},
	{"MANA.BudgetBytes=0", core.PrefetchMANA, func(c *core.Config) { c.Prefetch.MANA.BudgetBytes = 0 }, nil},
	{"MANA.RegionLines=1", core.PrefetchMANA,
		func(c *core.Config) { c.Prefetch.MANA.RegionLines = 1 },
		func(c *core.Config) { c.Prefetch.MANA.RegionLines = 2 }},
	{"MANA.RegionLines=100", core.PrefetchMANA,
		func(c *core.Config) { c.Prefetch.MANA.RegionLines = 100 },
		func(c *core.Config) { c.Prefetch.MANA.RegionLines = 64 }},
	{"MANA.QueueSize=0", core.PrefetchMANA, func(c *core.Config) { c.Prefetch.MANA.QueueSize = 0 }, nil},
	{"Shadow.DecodeQueue=0", core.PrefetchShadow, func(c *core.Config) { c.Prefetch.Shadow.DecodeQueue = 0 }, nil},
	{"Shadow.TargetQueue=0", core.PrefetchShadow, func(c *core.Config) { c.Prefetch.Shadow.TargetQueue = 0 }, nil},
	{"MaxInstrs=0", "",
		func(c *core.Config) { c.MaxInstrs = 0 },
		func(c *core.Config) { c.MaxInstrs = core.DefaultConfig().MaxInstrs }},
	{"MaxCycles=-1", "",
		func(c *core.Config) { c.MaxCycles = -1 },
		func(c *core.Config) { c.MaxCycles = int64(c.MaxInstrs) * 100 }},
}

// canonicalPair builds row i's raw config and its twin.
func canonicalPair(i int) (raw, twin core.Config) {
	row := canonicalRows[i]
	raw = canonicalBase()
	if row.kind != "" {
		raw.Prefetch.Kind = row.kind
	}
	twin = raw
	row.raw(&raw)
	if row.twin != nil {
		row.twin(&twin)
	}
	return raw, twin
}

// TestCanonicalKey: two descriptions of one machine resolve to one JobKey,
// so one engine simulates the pair once. Before core.Config.Validate was the
// one normalisation rule, every row here got two keys and two simulations
// of bit-identical Results.
func TestCanonicalKey(t *testing.T) {
	ctx := context.Background()
	for i, row := range canonicalRows {
		t.Run(row.name, func(t *testing.T) {
			raw, twin := canonicalPair(i)
			if raw == twin {
				t.Fatal("the row does not change its raw config")
			}
			jobs := []Job{{Workload: "gcc", Config: raw}, {Workload: "gcc", Config: twin}}
			if keyFor(t, jobs[0], 0) != keyFor(t, jobs[1], 0) {
				t.Fatal("raw config and its canonical twin resolve to different keys")
			}
			e := New(WithWorkers(1))
			var res [2]core.Result
			for j, job := range jobs {
				r, err := e.Run(ctx, job)
				if err != nil {
					t.Fatal(err)
				}
				res[j] = r
			}
			if st := e.Stats(); st.Simulations != 1 || st.CacheHits != 1 {
				t.Errorf("%d simulations, %d cache hits; want 1, 1", st.Simulations, st.CacheHits)
			}
			if res[0] != res[1] {
				t.Error("the pair's Results differ")
			}
		})
	}
}

// latencyFields are the latencies core.Config.Validate bounds.
var latencyFields = map[string]func(*core.Config, int){
	"Mem.L2HitLatency":      func(c *core.Config, n int) { c.Mem.L2HitLatency = n },
	"Mem.MemLatency":        func(c *core.Config, n int) { c.Mem.MemLatency = n },
	"Mem.BusCyclesPerLine":  func(c *core.Config, n int) { c.Mem.BusCyclesPerLine = n },
	"RedirectLatency":       func(c *core.Config, n int) { c.RedirectLatency = n },
	"Backend.DecodeLatency": func(c *core.Config, n int) { c.Backend.DecodeLatency = n },
}

// TestLatencyCeiling: a latency at MaxInt64 wrapped now + latency, and Run
// returned a plausible, wrong Result (24,216 cycles at the default became
// 14,721 with MemLatency there). Run now returns Validate's refusal.
func TestLatencyCeiling(t *testing.T) {
	e := New(WithWorkers(1))
	for name, set := range latencyFields {
		cfg := canonicalBase()
		set(&cfg, math.MaxInt)
		want := cfg
		werr := want.Validate()
		if werr == nil {
			t.Errorf("%s: Validate accepted MaxInt", name)
			continue
		}
		if _, err := e.Run(context.Background(), Job{Workload: "gcc", Config: cfg}); err == nil || err.Error() != werr.Error() {
			t.Errorf("%s: Run error %v, want Validate's %v", name, err, werr)
		}
	}
	if st := e.Stats(); st.Simulations != 0 {
		t.Errorf("%d simulations ran", st.Simulations)
	}
}

// FuzzValidate decodes arbitrary bytes (the JSON a SubmitRequest carries)
// into a core.Config. Validate must never panic, and an accepted config must
// be a fixed point whose JobKey equals the raw config's.
func FuzzValidate(f *testing.F) {
	seed := func(cfg core.Config) {
		b, err := json.Marshal(cfg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for i := range canonicalRows {
		raw, _ := canonicalPair(i)
		seed(raw)
	}
	for _, set := range latencyFields {
		cfg := canonicalBase()
		set(&cfg, math.MaxInt)
		seed(cfg)
	}
	for _, n := range []int{1 << 36, 1 << 62, 1<<62 + 1} {
		cfg := canonicalBase()
		cfg.FTQEntries, cfg.PredictorSize, cfg.FTB.Sets = n, n, n
		seed(cfg)
	}
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var raw core.Config
		if json.Unmarshal(data, &raw) != nil {
			return
		}
		cfg := raw
		if cfg.Validate() != nil {
			return
		}
		again := cfg
		if err := again.Validate(); err != nil || again != cfg {
			t.Fatalf("Validate is not idempotent: %+v became %+v (%v)", cfg, again, err)
		}
		_, rawKey, err := ResolveJob(Job{Workload: "gcc", Config: raw}, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, key, err := ResolveJob(Job{Workload: "gcc", Config: cfg}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if rawKey != key {
			t.Fatal("the raw config and its validated form resolve to different keys")
		}
	})
}
