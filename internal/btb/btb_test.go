package btb

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fdip/internal/isa"
)

func TestLookupMissThenHit(t *testing.T) {
	tb := New(Config{Sets: 64, Ways: 2, BlockOriented: true, MaxBlockInstrs: 8, AddrBits: 48})
	if _, ok := tb.PredictBlock(0x1000); ok {
		t.Error("hit in empty FTB")
	}
	tb.TrainBlock(0x1000, 5, isa.CondBranch, 0x2000)
	p, ok := tb.PredictBlock(0x1000)
	if !ok {
		t.Fatal("miss after train")
	}
	if p.NumInstrs != 5 || p.CTI != isa.CondBranch || p.Target != 0x2000 {
		t.Errorf("pred = %+v", p)
	}
}

func TestTrainUpdatesInPlace(t *testing.T) {
	tb := New(DefaultConfig())
	tb.TrainBlock(0x1000, 5, isa.CondBranch, 0x2000)
	tb.TrainBlock(0x1000, 3, isa.Jump, 0x3000)
	p, ok := tb.PredictBlock(0x1000)
	if !ok || p.NumInstrs != 3 || p.CTI != isa.Jump || p.Target != 0x3000 {
		t.Errorf("pred after retrain = %+v ok=%v", p, ok)
	}
	if tb.Updates != 1 || tb.Inserts != 1 {
		t.Errorf("Updates=%d Inserts=%d", tb.Updates, tb.Inserts)
	}
}

func TestLRUEviction(t *testing.T) {
	tb := New(Config{Sets: 1, Ways: 2, BlockOriented: true, MaxBlockInstrs: 8, AddrBits: 48})
	// Three blocks mapping to the same (only) set.
	tb.TrainBlock(0x1000, 4, isa.Jump, 0xa000)
	tb.TrainBlock(0x2000, 4, isa.Jump, 0xb000)
	// Touch 0x1000 so 0x2000 becomes LRU.
	if _, ok := tb.PredictBlock(0x1000); !ok {
		t.Fatal("0x1000 missing")
	}
	tb.TrainBlock(0x3000, 4, isa.Jump, 0xc000)
	if _, ok := tb.PredictBlock(0x2000); ok {
		t.Error("LRU entry 0x2000 survived")
	}
	if _, ok := tb.PredictBlock(0x1000); !ok {
		t.Error("MRU entry 0x1000 evicted")
	}
	if tb.Evictions != 1 {
		t.Errorf("Evictions = %d", tb.Evictions)
	}
}

func TestConventionalModeScans(t *testing.T) {
	tb := New(Config{Sets: 64, Ways: 4, BlockOriented: false, MaxBlockInstrs: 8, AddrBits: 48})
	// Branch at 0x100c terminates the block starting at 0x1000 (4 instrs).
	tb.TrainBlock(0x1000, 4, isa.CondBranch, 0x9000)
	before := tb.Lookups
	p, ok := tb.PredictBlock(0x1000)
	if !ok {
		t.Fatal("conventional scan missed")
	}
	if p.NumInstrs != 4 || p.Target != 0x9000 {
		t.Errorf("pred = %+v", p)
	}
	// Scanning from 0x1000 to the branch at 0x100c takes 4 probes.
	if got := tb.Lookups - before; got != 4 {
		t.Errorf("probes = %d, want 4", got)
	}
	// A miss burns MaxBlockInstrs probes.
	before = tb.Lookups
	if _, ok := tb.PredictBlock(0x5000); ok {
		t.Error("unexpected hit")
	}
	if got := tb.Lookups - before; got != 8 {
		t.Errorf("miss probes = %d, want 8", got)
	}
}

func TestConventionalBlockFromMidpoint(t *testing.T) {
	// A conventional BTB finds the same branch when the block starts
	// mid-way (e.g. after a taken branch into the middle of a block).
	tb := New(Config{Sets: 64, Ways: 4, BlockOriented: false, MaxBlockInstrs: 8, AddrBits: 48})
	tb.TrainBlock(0x1000, 4, isa.CondBranch, 0x9000) // branch at 0x100c
	p, ok := tb.PredictBlock(0x1008)
	if !ok || p.NumInstrs != 2 {
		t.Errorf("mid-block pred = %+v ok=%v", p, ok)
	}
}

func TestStorageAccounting(t *testing.T) {
	// Paper-style: 128-set 8-way block-oriented = 1K entries, 92-bit
	// entries, 11.5KB total.
	tb := New(Config{Sets: 128, Ways: 8, BlockOriented: true, MaxBlockInstrs: 8, AddrBits: 48})
	if tb.EntryBits() != 92 {
		t.Errorf("EntryBits = %d, want 92", tb.EntryBits())
	}
	if got := tb.StorageBytes(); got != 1024*92/8 {
		t.Errorf("StorageBytes = %d", got)
	}
	// Doubling sets shaves one tag bit.
	tb2 := New(Config{Sets: 256, Ways: 8, BlockOriented: true, MaxBlockInstrs: 8, AddrBits: 48})
	if tb2.EntryBits() != 91 {
		t.Errorf("256-set EntryBits = %d, want 91", tb2.EntryBits())
	}
	// Conventional saves the 5-bit length field.
	tb3 := New(Config{Sets: 128, Ways: 8, BlockOriented: false, MaxBlockInstrs: 8, AddrBits: 48})
	if tb3.EntryBits() != 87 {
		t.Errorf("conventional EntryBits = %d, want 87", tb3.EntryBits())
	}
}

// InvalidateAll clears the buffer.
func (t *TargetBuffer) InvalidateAll() {
	clear(t.entries)
}

func TestInvalidateAll(t *testing.T) {
	tb := New(DefaultConfig())
	tb.TrainBlock(0x1000, 4, isa.Jump, 0x2000)
	tb.InvalidateAll()
	if _, ok := tb.PredictBlock(0x1000); ok {
		t.Error("entry survived InvalidateAll")
	}
}

func TestLengthClamping(t *testing.T) {
	tb := New(Config{Sets: 16, Ways: 1, BlockOriented: true, MaxBlockInstrs: 8, AddrBits: 48})
	tb.TrainBlock(0x1000, 100, isa.CondBranch, 0x2000)
	p, _ := tb.PredictBlock(0x1000)
	if p.NumInstrs != 8 {
		t.Errorf("unclamped length %d", p.NumInstrs)
	}
	tb.TrainBlock(0x2000, 0, isa.CondBranch, 0x2000)
	p, _ = tb.PredictBlock(0x2000)
	if p.NumInstrs != 1 {
		t.Errorf("zero length not clamped: %d", p.NumInstrs)
	}
}

func TestHitRateAndString(t *testing.T) {
	tb := New(DefaultConfig())
	if tb.HitRate() != 0 {
		t.Error("empty hit rate non-zero")
	}
	tb.TrainBlock(0x1000, 4, isa.Jump, 0x2000)
	tb.PredictBlock(0x1000)
	tb.PredictBlock(0x4000)
	if hr := tb.HitRate(); hr != 0.5 {
		t.Errorf("HitRate = %v", hr)
	}
}

// Property: distinct tags never alias — training N distinct blocks in an
// oversized buffer preserves each prediction exactly.
func TestQuickNoAliasing(t *testing.T) {
	tb := New(Config{Sets: 4096, Ways: 8, BlockOriented: true, MaxBlockInstrs: 16, AddrBits: 48})
	seen := map[uint64]uint64{} // start -> target
	rng := rand.New(rand.NewSource(4))
	f := func(raw uint64, tgtRaw uint32) bool {
		start := (raw % (1 << 30)) &^ 3
		tgt := uint64(tgtRaw) &^ 3
		tb.TrainBlock(start, 4, isa.Jump, tgt)
		seen[start] = tgt
		// Verify a random previously trained block still predicts right
		// (capacity is far beyond MaxCount, so no evictions).
		for s, want := range seen {
			p, ok := tb.PredictBlock(s)
			if !ok || p.Target != want {
				return false
			}
			break
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestProbeMemoReplaysRetrainedTarget: an in-place retrain changes the
// entry's target, and the next conventional-mode walk from the same start
// returns the fresh target.
func TestProbeMemoReplaysRetrainedTarget(t *testing.T) {
	tb := New(Config{Sets: 8, Ways: 2, BlockOriented: false, MaxBlockInstrs: 8, AddrBits: 48})
	tb.TrainBlock(0x1000, 3, isa.Jump, 0x2000)
	if p, ok := tb.PredictBlock(0x1000); !ok || p.Target != 0x2000 || p.NumInstrs != 3 {
		t.Fatalf("first walk: %+v, %v", p, ok)
	}
	tb.TrainBlock(0x1000, 3, isa.Jump, 0x3000) // same branch pc: in-place update
	if p, ok := tb.PredictBlock(0x1000); !ok || p.Target != 0x3000 {
		t.Fatalf("walk after the retrain returned a stale target: %+v, %v", p, ok)
	}
}

// TestProbeMemoInvalidatedByAllocation: an allocation that creates an earlier
// terminating CTI within a walk already taken is honoured on the very next
// prediction.
func TestProbeMemoInvalidatedByAllocation(t *testing.T) {
	tb := New(Config{Sets: 8, Ways: 2, BlockOriented: false, MaxBlockInstrs: 8, AddrBits: 48})
	tb.TrainBlock(0x1000, 5, isa.Jump, 0x2000) // branch at 0x1010
	if p, _ := tb.PredictBlock(0x1000); p.NumInstrs != 5 {
		t.Fatalf("walk before allocation: %+v", p)
	}
	tb.TrainBlock(0x1000, 2, isa.CondBranch, 0x4000) // new branch at 0x1004
	if p, _ := tb.PredictBlock(0x1000); p.NumInstrs != 2 || p.Target != 0x4000 {
		t.Fatalf("walk after the allocation missed the earlier branch: %+v", p)
	}
}
