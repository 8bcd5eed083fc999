package oracle

import (
	"testing"

	"fdip/internal/isa"
	"fdip/internal/program"
)

// Next executes one instruction and returns its record.
func (w *Walker) Next() Record {
	var rec Record
	w.NextInto(&rec)
	return rec
}

func testImage(t testing.TB, seed int64, funcs int) *program.Image {
	t.Helper()
	p := program.DefaultParams()
	p.Seed = seed
	p.NumFuncs = funcs
	im, err := program.Generate(p)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return im
}

func TestWalkerFollowsRealEdges(t *testing.T) {
	im := testImage(t, 1, 60)
	w := NewWalker(im, 99)
	prev := Record{NextPC: im.Entry}
	for i := 0; i < 200_000; i++ {
		rec := w.Next()
		if rec.PC != prev.NextPC {
			t.Fatalf("step %d: pc %#x, want %#x", i, rec.PC, prev.NextPC)
		}
		ins, ok := im.InstrAt(rec.PC)
		if !ok {
			t.Fatalf("step %d: pc %#x outside image", i, rec.PC)
		}
		if ins != rec.Instr {
			t.Fatalf("step %d: record instr mismatch", i)
		}
		// NextPC must be either fall-through or the instruction's target.
		if !rec.Instr.IsCTI() {
			if rec.NextPC != rec.PC+isa.InstrBytes {
				t.Fatalf("step %d: non-CTI jumped", i)
			}
		} else if rec.Taken && !rec.Instr.Kind.IsIndirect() {
			if rec.NextPC != rec.Instr.Target {
				t.Fatalf("step %d: taken CTI to %#x, want %#x", i, rec.NextPC, rec.Instr.Target)
			}
		}
		prev = rec
	}
}

func TestWalkerDeterministic(t *testing.T) {
	im := testImage(t, 2, 40)
	a, b := NewWalker(im, 7), NewWalker(im, 7)
	for i := 0; i < 50_000; i++ {
		ra := a.Next()
		rb := b.Next()
		if ra != rb {
			t.Fatalf("step %d: %+v != %+v", i, ra, rb)
		}
	}
}

func TestWalkerSeedsDiffer(t *testing.T) {
	im := testImage(t, 2, 40)
	a, b := NewWalker(im, 7), NewWalker(im, 8)
	same := true
	for i := 0; i < 20_000; i++ {
		ra := a.Next()
		rb := b.Next()
		if ra != rb {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical 20k-instruction streams")
	}
}

func TestCallsAndReturnsBalance(t *testing.T) {
	im := testImage(t, 3, 50)
	w := NewWalker(im, 1)
	depth := 0
	maxDepth := 0
	for i := 0; i < 500_000; i++ {
		rec := w.Next()
		switch rec.Instr.Kind {
		case isa.Call, isa.IndirectCall:
			depth++
			if depth > maxDepth {
				maxDepth = depth
			}
		case isa.Ret:
			if depth > 0 {
				depth--
			} else if rec.NextPC != im.Entry {
				t.Fatalf("step %d: return with empty stack went to %#x, not entry", i, rec.NextPC)
			}
		}
	}
	if maxDepth == 0 {
		t.Error("no calls executed in 500k instructions")
	}
	if maxDepth >= maxStack {
		t.Errorf("call depth %d hit the defensive cap", maxDepth)
	}
}

func TestReturnsGoToCallSites(t *testing.T) {
	im := testImage(t, 4, 50)
	w := NewWalker(im, 1)
	var stack []uint64
	for i := 0; i < 300_000; i++ {
		rec := w.Next()
		switch rec.Instr.Kind {
		case isa.Call, isa.IndirectCall:
			stack = append(stack, rec.PC+isa.InstrBytes)
		case isa.Ret:
			if len(stack) == 0 {
				if rec.NextPC != im.Entry {
					t.Fatalf("step %d: empty-stack return to %#x", i, rec.NextPC)
				}
				continue
			}
			want := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if rec.NextPC != want {
				t.Fatalf("step %d: returned to %#x, want %#x", i, rec.NextPC, want)
			}
		}
	}
}

func TestLoopBranchesTerminate(t *testing.T) {
	// A tight synthetic image: one function, one loop branch.
	im := testImage(t, 5, 30)
	w := NewWalker(im, 2)
	// Count consecutive taken outcomes per loop branch; they must never
	// exceed 4x the mean trip (the walker's cap).
	consec := map[uint64]int{}
	for i := 0; i < 400_000; i++ {
		rec := w.Next()
		if rec.Instr.Kind != isa.CondBranch {
			continue
		}
		b := im.BehaviorAt(rec.PC)
		if b.Model != program.ModelLoop {
			continue
		}
		if rec.Taken {
			consec[rec.PC]++
			if consec[rec.PC] > b.MeanTrip*4+1 {
				t.Fatalf("loop at %#x exceeded trip cap: %d consecutive taken (mean %d)",
					rec.PC, consec[rec.PC], b.MeanTrip)
			}
		} else {
			consec[rec.PC] = 0
		}
	}
}

func TestBiasedBranchFrequencies(t *testing.T) {
	im := testImage(t, 6, 40)
	w := NewWalker(im, 3)
	taken := map[uint64]int{}
	seen := map[uint64]int{}
	for i := 0; i < 1_000_000; i++ {
		rec := w.Next()
		if rec.Instr.Kind != isa.CondBranch {
			continue
		}
		if im.BehaviorAt(rec.PC).Model != program.ModelBiased {
			continue
		}
		seen[rec.PC]++
		if rec.Taken {
			taken[rec.PC]++
		}
	}
	checked := 0
	for pc, n := range seen {
		if n < 2000 {
			continue
		}
		p := im.BehaviorAt(pc).TakenProb
		got := float64(taken[pc]) / float64(n)
		if got < p-0.1 || got > p+0.1 {
			t.Errorf("branch %#x: empirical taken rate %.3f, want ~%.3f (n=%d)", pc, got, p, n)
		}
		checked++
	}
	if checked == 0 {
		t.Skip("no biased branch executed often enough to test")
	}
}

func TestIndirectTargetsFromSet(t *testing.T) {
	im := testImage(t, 7, 50)
	w := NewWalker(im, 4)
	found := false
	for i := 0; i < 300_000; i++ {
		rec := w.Next()
		if rec.Instr.Kind != isa.IndirectJump && rec.Instr.Kind != isa.IndirectCall {
			continue
		}
		found = true
		b := im.BehaviorAt(rec.PC)
		ok := false
		for _, tgt := range b.Targets {
			if rec.NextPC == tgt {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("indirect at %#x went to %#x, not in target set %v", rec.PC, rec.NextPC, b.Targets)
		}
	}
	if !found {
		t.Skip("no indirect CTI executed")
	}
}

func TestWalkerReset(t *testing.T) {
	im := testImage(t, 8, 30)
	w := NewWalker(im, 5)
	for i := 0; i < 1000; i++ {
		w.Next()
	}
	w.Reset(im, 5)
	if w.pc != im.Entry {
		t.Errorf("after Reset, PC = %#x, want entry %#x", w.pc, im.Entry)
	}
	if w.Executed != 0 {
		t.Errorf("after Reset, Executed = %d", w.Executed)
	}
	if rec := w.Next(); rec.PC != im.Entry {
		t.Errorf("first record after Reset at %#x, want entry %#x", rec.PC, im.Entry)
	}
}

// TestWalkerResetMatchesNew holds Reset to its definition: a walker dirtied
// on one image and then Reset(im2, s) produces exactly the records of
// NewWalker(im2, s) — across switches to a larger image (the state table
// grows), to a smaller one (it shrinks within its capacity, and stale
// records beyond the new count must not leak back on a later grow) and
// within one image (state cleared in place, RNG reseeded, not continued).
func TestWalkerResetMatchesNew(t *testing.T) {
	small, large := testImage(t, 3, 20), testImage(t, 4, 120)
	ns, nl := small.StatefulBranches(), large.StatefulBranches()
	if ns >= nl {
		t.Fatalf("stateful branches: small %d, large %d; want small < large", ns, nl)
	}
	cases := []struct {
		name     string
		from, to *program.Image
	}{
		{"small-to-large", small, large},
		{"large-to-small", large, small},
		{"same-image", large, large},
	}
	const n = 50_000
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWalker(tc.from, 11)
			for i := 0; i < n; i++ {
				w.Next()
			}
			// Two generations: the second starts from a walker whose table
			// was last resized by the first.
			for gen, seed := range []int64{21, 22} {
				w.Reset(tc.to, seed)
				ref := NewWalker(tc.to, seed)
				for i := 0; i < n; i++ {
					got := w.Next()
					want := ref.Next()
					if got != want {
						t.Fatalf("generation %d record %d: reset walker %+v, fresh walker %+v", gen, i, got, want)
					}
				}
				if w.Executed != ref.Executed {
					t.Fatalf("generation %d: Executed %d, want %d", gen, w.Executed, ref.Executed)
				}
				// Dirty the walker on the other image before the next
				// generation's Reset.
				w.Reset(tc.from, seed+100)
				for i := 0; i < n; i++ {
					w.Next()
				}
			}
		})
	}
}

// TestWalkerResetZeroAlloc requires a warmed walker to recycle without
// allocating: an engine worker slot resets one per point.
func TestWalkerResetZeroAlloc(t *testing.T) {
	small, large := testImage(t, 3, 20), testImage(t, 4, 120)
	w := NewWalker(large, 1)
	seed := int64(0)
	allocs := testing.AllocsPerRun(20, func() {
		seed++
		w.Reset(small, seed)
		for i := 0; i < 1000; i++ {
			w.Next()
		}
		w.Reset(large, seed)
		for i := 0; i < 1000; i++ {
			w.Next()
		}
	})
	if allocs != 0 {
		t.Errorf("warm Reset plus walk allocates %.1f objects per run; want 0", allocs)
	}
}

func TestWalkerCoversFootprint(t *testing.T) {
	im := testImage(t, 9, 80)
	w := NewWalker(im, 6)
	touched := map[uint64]bool{}
	for i := 0; i < 2_000_000; i++ {
		rec := w.Next()
		touched[rec.PC&^63] = true // 64B lines
	}
	lines := int(im.Size() / 64)
	cov := float64(len(touched)) / float64(lines)
	// The dispatcher + call-graph structure must reach a large share of
	// the image; a tiny coverage would mean the workload generator is not
	// exercising the footprint it claims.
	if cov < 0.3 {
		t.Errorf("walker touched only %.1f%% of code lines", cov*100)
	}
}
