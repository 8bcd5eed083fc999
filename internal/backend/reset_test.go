package backend

import (
	"math/rand"
	"testing"

	"fdip/internal/isa"
	"fdip/internal/pipe"
)

// beTrace drives the backend with a deterministic delivery/tick mix —
// including register dependences and an occasional resolving misprediction —
// and records every observable outcome plus the final counters.
func beTrace(b *Backend, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	committed := recordCommits(b)
	kinds := []isa.Kind{isa.ALU, isa.Mul, isa.Load, isa.CondBranch}
	var out []uint64
	seq := uint64(0)
	missInFlight := false // the model allows one unresolved mispredict
	for now := int64(1); now <= 600; now++ {
		if n := b.Accept(); n > 0 && rng.Intn(3) > 0 {
			batch := make([]pipe.Uop, 0, n)
			for j := 0; j < n && j < 4; j++ {
				u := mkUop(seq, kinds[rng.Intn(len(kinds))])
				u.Instr.Dst = uint8(1 + rng.Intn(7))
				u.Instr.Src1 = uint8(1 + rng.Intn(7))
				if !missInFlight && rng.Intn(16) == 0 {
					u.Mispredicted = true
					u.ActualNextPC = u.PC + 8
					missInFlight = true
				}
				batch = append(batch, u)
				seq++
			}
			deliver(b, batch, now)
		}
		if u := b.Tick(now); u != nil {
			missInFlight = false
			out = append(out, u.Seq, u.ActualNextPC)
		}
		out = append(out, uint64(b.ROBOccupancy()), uint64(b.Accept()))
		if e := b.NextEvent(now); e < int64(1)<<62 {
			out = append(out, uint64(e))
		}
	}
	out = append(out, *committed...)
	out = append(out, b.Committed, b.Issued, b.Squashed, b.ROBFullCycles)
	for _, m := range b.MispredictsResolved {
		out = append(out, m)
	}
	return out
}

// TestBackendResetEqualsFresh dirties the backend mid-flight (live ROB
// entries, a pending misprediction, a part-full decode pipe), resets it, and
// requires the exact observable behaviour of a freshly constructed backend.
func TestBackendResetEqualsFresh(t *testing.T) {
	cfg := Config{ROBSize: 16, IssueWidth: 2, CommitWidth: 2, IssueWindow: 8, DecodeLatency: 2, PipeCap: 8}
	dirty := New(cfg)
	beTrace(dirty, 1)
	dirty.Reset()
	if !dirty.Drained() {
		t.Fatal("Reset left work in the backend")
	}
	got := beTrace(dirty, 2)
	want := beTrace(New(cfg), 2)
	if len(got) != len(want) {
		t.Fatalf("trace lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("reset backend diverged from fresh at trace step %d: %d != %d", i, got[i], want[i])
		}
	}
}
