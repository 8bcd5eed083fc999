package prefetch

import (
	"math/rand"
	"testing"

	"fdip/internal/memsys"
)

// pfTrace drives a prefetcher and its environment with a deterministic mix
// of demand accesses, FTQ traffic, squashes, and ticks — the stimulus the
// core delivers — recording every observable outcome plus the issue-port
// counters.
func pfTrace(env Env, p Prefetcher, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	var out []uint64
	var seq uint64
	now := int64(0)
	for i := 0; i < 1500; i++ {
		now++
		env.Hier.DrainCompleted(now, func(tr *memsys.Transfer) {
			if tr.Prefetch && !tr.DemandMerged {
				env.PFB.Insert(tr.Line)
			} else {
				env.L1I.Fill(tr.Line, tr.Prefetch)
			}
			out = append(out, tr.Line)
		})
		switch rng.Intn(5) {
		case 0, 1: // demand access, resolved like the fetch engine does
			line := uint64(rng.Intn(1<<9)) * 32
			l1Hit := env.L1I.Access(line)
			pfbHit := false
			if !l1Hit {
				if env.PFB.Take(line) {
					pfbHit = true
					env.L1I.Fill(line, true)
				} else {
					env.Hier.Request(line, false, now)
				}
			}
			p.OnDemandAccess(line, l1Hit, pfbHit, now)
		case 2: // a BPU prediction lands in the FTQ
			if !env.FTQ.Full() {
				pushBlock(env.FTQ, seq, uint64(rng.Intn(1<<9))*32, 1+rng.Intn(8))
				seq++
			}
		case 3: // occasional redirect
			if rng.Intn(8) == 0 {
				env.FTQ.Squash()
				p.OnSquash()
			}
		case 4: // fetch consumes the head
			if env.FTQ.Len() > 0 && rng.Intn(3) == 0 {
				env.FTQ.PopHead()
			}
		}
		p.Tick(now)
		if p.Idle() {
			out = append(out, 1)
		}
	}
	st := p.IssueStats()
	out = append(out, st.Issued, st.DroppedPresent, st.DroppedInflight, st.DeferredBusBusy)
	if env.FTB != nil {
		// The shadow decoder's observable side effect is FTB state.
		out = append(out, env.FTB.Lookups, env.FTB.Hits, env.FTB.Inserts,
			env.FTB.Updates, env.FTB.Evictions)
	}
	return out
}

// resetAll resets the prefetcher and its whole environment, as the owning
// processor's Reset does.
func resetAll(env Env, p Prefetcher) {
	env.L1I.Reset()
	env.PFB.Reset()
	env.Hier.Reset()
	env.FTQ.Reset()
	if env.FTB != nil {
		env.FTB.Reset()
	}
	p.Reset()
}

// TestPrefetcherResetEqualsFresh dirties each prefetch engine (and its
// environment), resets everything, and requires the exact observable
// behaviour of a freshly constructed engine over a fresh environment.
func TestPrefetcherResetEqualsFresh(t *testing.T) {
	cases := []struct {
		name string
		mk   func() (Env, Prefetcher)
	}{
		{"none", func() (Env, Prefetcher) { env := testEnv(); return env, NewNone() }},
		{"nextline", func() (Env, Prefetcher) { env := testEnv(); return env, NewNextLine(env, 4) }},
		{"streambuf", func() (Env, Prefetcher) { env := testEnv(); return env, NewStreamBuffers(env, 4, 4) }},
		{"fdp", func() (Env, Prefetcher) {
			env := testEnv()
			return env, NewFDP(env, FDPConfig{PIQSize: 8, SkipHead: 1})
		}},
		{"fdp+cpf-conservative", func() (Env, Prefetcher) {
			env := testEnv()
			return env, NewFDP(env, FDPConfig{PIQSize: 8, SkipHead: 1, CPF: CPFConservative})
		}},
		{"fdp+cpf-optimistic+remove", func() (Env, Prefetcher) {
			env := testEnv()
			return env, NewFDP(env, FDPConfig{PIQSize: 8, SkipHead: 1, CPF: CPFOptimistic, RemoveCPF: true})
		}},
		{"mana", func() (Env, Prefetcher) {
			env := testEnv()
			return env, NewMANA(env, MANAConfig{BudgetBytes: 512, RegionLines: 8, QueueSize: 4})
		}},
		{"shadow", func() (Env, Prefetcher) {
			env := testModernEnv()
			return env, NewShadow(env, ShadowConfig{DecodeQueue: 2, TargetQueue: 4, PrefetchTargets: true})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env, dirty := tc.mk()
			pfTrace(env, dirty, 1)
			resetAll(env, dirty)
			got := pfTrace(env, dirty, 2)
			fenv, fresh := tc.mk()
			want := pfTrace(fenv, fresh, 2)
			if len(got) != len(want) {
				t.Fatalf("trace lengths differ: %d vs %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("reset %s diverged from fresh at trace step %d: %d != %d", tc.name, i, got[i], want[i])
				}
			}
		})
	}
}
