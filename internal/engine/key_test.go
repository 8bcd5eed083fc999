package engine

import (
	"context"
	"testing"

	"fdip/internal/core"
)

// keyFor resolves and returns just the key, failing the test on error.
func keyFor(t *testing.T, job Job, instrs uint64) JobKey {
	t.Helper()
	_, key, err := ResolveJob(job, instrs)
	if err != nil {
		t.Fatalf("ResolveJob(%q): %v", job.Name, err)
	}
	return key
}

// TestJobKeyIgnoresDisplayNames: the same simulation point under different
// labels must share one cache entry.
func TestJobKeyIgnoresDisplayNames(t *testing.T) {
	cfg := core.DefaultConfig()
	a := keyFor(t, Job{Name: "sweepA/gcc/ftq=32", Workload: "gcc", Config: cfg}, 0)
	b := keyFor(t, Job{Name: "sweepB/base", Workload: "gcc", Config: cfg}, 0)
	if a != b {
		t.Fatalf("identical resolved points with different display names got different keys")
	}
}

// TestJobKeyCoversConfigKnobs is the cache-key soundness case: two plans with
// different knobs but colliding-looking labels must not share cache entries.
func TestJobKeyCoversConfigKnobs(t *testing.T) {
	small := core.DefaultConfig()
	small.FTQEntries = 2
	big := core.DefaultConfig()
	big.FTQEntries = 32
	a := keyFor(t, Job{Name: "gcc/ftq-sweep", Workload: "gcc", Config: small}, 0)
	b := keyFor(t, Job{Name: "gcc/ftq-sweep", Workload: "gcc", Config: big}, 0)
	if a == b {
		t.Fatalf("colliding labels with different FTQEntries share a key — cache poisoning")
	}
}

// TestJobKeyCoversWorkloadIdentity: the key follows the generated program,
// not the label that happens to describe it.
func TestJobKeyCoversWorkloadIdentity(t *testing.T) {
	cfg := core.DefaultConfig()
	a := keyFor(t, Job{Name: "point", Workload: "gcc", Config: cfg}, 0)
	b := keyFor(t, Job{Name: "point", Workload: "deltablue", Config: cfg}, 0)
	if a == b {
		t.Fatalf("different workloads under one label share a key")
	}
}

// TestJobKeyCoversSeed: branch-outcome seeds are part of the simulation
// identity.
func TestJobKeyCoversSeed(t *testing.T) {
	cfg := core.DefaultConfig()
	a := keyFor(t, Job{Workload: "gcc", Config: cfg, Seed: 7}, 0)
	b := keyFor(t, Job{Workload: "gcc", Config: cfg, Seed: 8}, 0)
	if a == b {
		t.Fatalf("different oracle seeds share a key")
	}
}

// TestJobKeyInstrsNormalisation: an engine-wide budget override and a config
// that sets the same budget directly resolve to the same identity (the
// normalised-config path the executor itself takes).
func TestJobKeyInstrsNormalisation(t *testing.T) {
	base := core.DefaultConfig()
	overridden := keyFor(t, Job{Workload: "gcc", Config: base}, 20_000)

	direct := base
	direct.MaxInstrs = 20_000
	direct.MaxCycles = 0
	explicit := keyFor(t, Job{Workload: "gcc", Config: direct}, 0)
	if overridden != explicit {
		t.Fatalf("instruction-budget override and explicit budget disagree on the key")
	}
	if plain := keyFor(t, Job{Workload: "gcc", Config: base}, 0); plain == overridden {
		t.Fatalf("budget override did not change the key")
	}
}

// TestJobKeyMatchesEngineMemo ties the exported key to the executor: two jobs
// with equal keys coalesce into one simulation, two with different keys both
// simulate.
func TestJobKeyMatchesEngineMemo(t *testing.T) {
	cfg := core.DefaultConfig()
	other := cfg
	other.FTQEntries = 4

	eng := New(WithWorkers(1), WithInstrBudget(2_000))
	ctx := context.Background()
	jobs := []Job{
		{Name: "first", Workload: "gcc", Config: cfg},
		{Name: "relabelled", Workload: "gcc", Config: cfg},
		{Name: "first", Workload: "gcc", Config: other}, // colliding label, new knob
	}
	keys := make([]JobKey, len(jobs))
	for i, job := range jobs {
		keys[i] = keyFor(t, job, 2_000)
		if _, err := eng.Run(ctx, job); err != nil {
			t.Fatalf("run %q: %v", job.Name, err)
		}
	}
	if keys[0] != keys[1] || keys[0] == keys[2] {
		t.Fatalf("key relations wrong: %v vs %v vs %v", keys[0], keys[1], keys[2])
	}
	st := eng.Stats()
	if st.Simulations != 2 || st.CacheHits != 1 {
		t.Fatalf("engine memo disagrees with JobKey: %d simulations, %d hits (want 2, 1)", st.Simulations, st.CacheHits)
	}
}

// TestResultCacheGetPut pins the shared cache's contract: unknown keys miss,
// the first result stored for a key is kept, Len counts distinct keys, a
// relabelled job resolves to the same entry, and a key still in flight is a
// miss rather than a wait.
func TestResultCacheGetPut(t *testing.T) {
	var c ResultCache
	cfg := core.DefaultConfig()
	other := cfg
	other.FTQEntries = 4
	gcc := keyFor(t, Job{Name: "sweepA/gcc", Workload: "gcc", Config: cfg}, 0)
	relabelled := keyFor(t, Job{Name: "sweepB/base", Workload: "gcc", Config: cfg}, 0)
	small := keyFor(t, Job{Name: "sweepA/gcc", Workload: "gcc", Config: other}, 0)

	if _, ok := c.Get(gcc); ok {
		t.Fatalf("empty cache hit")
	}
	c.Put(gcc, core.Result{Cycles: 100})
	c.Put(gcc, core.Result{Cycles: 200})
	if res, ok := c.Get(gcc); !ok || res.Cycles != 100 {
		t.Fatalf("Get after two Puts = %d, %v; want the first (100), true", res.Cycles, ok)
	}
	if res, ok := c.Get(relabelled); !ok || res.Cycles != 100 {
		t.Fatalf("relabelled job missed its entry: %d, %v", res.Cycles, ok)
	}
	if _, ok := c.Get(small); ok {
		t.Fatalf("different config hit another key's entry")
	}
	c.Put(small, core.Result{Cycles: 300})
	if n := c.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2 distinct keys", n)
	}

	var flight ResultCache
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		flight.do(context.Background(), gcc, func() (core.Result, error) {
			close(started)
			<-release
			return core.Result{Cycles: 1}, nil
		})
	}()
	<-started
	if _, ok := flight.Get(gcc); ok {
		t.Fatalf("in-flight key served as a hit")
	}
	close(release)
	<-done
	if res, ok := flight.Get(gcc); !ok || res.Cycles != 1 {
		t.Fatalf("settled key = %d, %v; want 1, true", res.Cycles, ok)
	}
}
