package bpred

import (
	"math/rand"
	"testing"
)

// predTrace drives a deterministic predict/commit/repair mix — the protocol
// the front end uses — recording predictions and history words.
func predTrace(p Predictor, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	var out []uint64
	for i := 0; i < 2000; i++ {
		pc := uint64(rng.Intn(256)) * 4
		hist := p.History()
		taken := p.Predict(pc)
		actual := rng.Intn(3) > 0 // biased outcomes train the tables unevenly
		out = append(out, hist)
		if taken {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
		switch rng.Intn(4) {
		case 0:
			p.Repair(hist, actual) // mispredicted conditional
		case 1:
			p.Restore(hist) // mispredicted non-conditional
		}
		p.Commit(pc, hist, actual)
	}
	return out
}

// TestPredictorResetEqualsFresh dirties each predictor, resets it, and
// requires the exact prediction/history behaviour of a fresh one.
func TestPredictorResetEqualsFresh(t *testing.T) {
	for _, name := range []string{"bimodal", "gshare", "local", "hybrid", "static-taken", "static-nottaken"} {
		t.Run(name, func(t *testing.T) {
			mk := func() Predictor {
				p, err := New(name, 512, 10)
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			dirty := mk()
			predTrace(dirty, 1)
			dirty.Reset()
			got := predTrace(dirty, 2)
			want := predTrace(mk(), 2)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("reset %s diverged from fresh at trace step %d: %d != %d", name, i, got[i], want[i])
				}
			}
		})
	}
}

// rasTrace drives a deterministic push/pop/checkpoint/restore mix.
func rasTrace(r *RAS, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	var out []uint64
	var cps []RASCheckpoint
	for i := 0; i < 1000; i++ {
		switch rng.Intn(4) {
		case 0:
			r.Push(uint64(rng.Intn(1 << 16)))
		case 1:
			if a, ok := r.Pop(); ok {
				out = append(out, a)
			}
		case 2:
			cps = append(cps, r.Checkpoint())
		case 3:
			if len(cps) > 0 {
				r.Restore(cps[len(cps)-1])
				cps = cps[:len(cps)-1]
			}
		}
		if a, ok := r.top(); ok {
			out = append(out, a)
		}
		out = append(out, uint64(r.len))
	}
	return append(out, r.Pushes, r.Pops, r.Underflows)
}

// TestRASResetEqualsFresh dirties the return address stack, resets it, and
// requires the exact observable behaviour of a fresh one.
func TestRASResetEqualsFresh(t *testing.T) {
	dirty := NewRAS(16)
	rasTrace(dirty, 1)
	dirty.Reset()
	got := rasTrace(dirty, 2)
	want := rasTrace(NewRAS(16), 2)
	if len(got) != len(want) {
		t.Fatalf("trace lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("reset RAS diverged from fresh at trace step %d: %d != %d", i, got[i], want[i])
		}
	}
}
