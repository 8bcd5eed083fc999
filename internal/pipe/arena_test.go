package pipe

import (
	"math/rand"
	"testing"
)

// arenaShadow mirrors an Arena with an explicit list of live entries, each
// tagged with the unique serial stamped into its Uop at allocation. Because
// Alloc only ever writes at the ring tail, any reuse of a still-live index
// would clobber that slot's serial — so checking every live slot's serial
// after every operation proves no live index is handed out again before
// FreeOldest or FreeNewest releases it.
type arenaShadow struct {
	idx    []uint32
	serial []uint64
}

func (s *arenaShadow) push(i uint32, ser uint64) {
	s.idx = append(s.idx, i)
	s.serial = append(s.serial, ser)
}

func (s *arenaShadow) check(t *testing.T, a *Arena, step int) {
	t.Helper()
	if a.Len() != len(s.idx) {
		t.Fatalf("step %d: Len() = %d, shadow holds %d", step, a.Len(), len(s.idx))
	}
	seen := make(map[uint32]bool, len(s.idx))
	for k, i := range s.idx {
		if seen[i] {
			t.Fatalf("step %d: index %d live twice", step, i)
		}
		seen[i] = true
		if got := a.At(i).Seq; got != s.serial[k] {
			t.Fatalf("step %d: live slot %d holds serial %d, want %d — slot reused while live",
				step, i, got, s.serial[k])
		}
	}
	// The live set must be one contiguous ring range in allocation order.
	for k := 1; k < len(s.idx); k++ {
		if a.Next(s.idx[k-1]) != s.idx[k] {
			t.Fatalf("step %d: live indices not contiguous at position %d (%d -> %d)",
				step, k, s.idx[k-1], s.idx[k])
		}
	}
}

// TestArenaRandomizedRecycle drives random Alloc / FreeOldest / FreeNewest /
// Reset sequences — the commit, squash, and pristine-machine paths — against
// the shadow model. It fills to capacity and drains to empty repeatedly so
// the ring wraps many times.
func TestArenaRandomizedRecycle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := NewArena(40) // rounds up to 64
		if len(a.buf) != 64 {
			t.Fatalf("Cap() = %d, want 64", len(a.buf))
		}
		var sh arenaShadow
		var nextSerial uint64
		for step := 0; step < 20_000; step++ {
			switch op := rng.Intn(10); {
			case op < 5: // allocate a burst, as fetch does
				n := rng.Intn(4) + 1
				for j := 0; j < n && a.Len() < len(a.buf); j++ {
					nextSerial++
					i, u := a.Alloc()
					*u = Uop{Seq: nextSerial, PC: uint64(i)}
					sh.push(i, nextSerial)
				}
			case op < 8: // commit: free the oldest k
				if len(sh.idx) > 0 {
					k := rng.Intn(len(sh.idx)) + 1
					a.FreeOldest(k)
					sh.idx = sh.idx[k:]
					sh.serial = sh.serial[k:]
				}
			case op < 9: // squash: free the newest k
				if len(sh.idx) > 0 {
					k := rng.Intn(len(sh.idx)) + 1
					a.FreeNewest(k)
					sh.idx = sh.idx[:len(sh.idx)-k]
					sh.serial = sh.serial[:len(sh.serial)-k]
				}
			default:
				if rng.Intn(50) == 0 {
					a.Reset()
					sh.idx = sh.idx[:0]
					sh.serial = sh.serial[:0]
				}
			}
			sh.check(t, a, step)
		}
	}
}

// TestArenaFreePanics pins the guard rails: freeing more than the live count
// must panic rather than silently corrupt the ring accounting.
func TestArenaFreePanics(t *testing.T) {
	for _, newest := range []bool{false, true} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newest=%v: freeing past the live range did not panic", newest)
				}
			}()
			a := NewArena(8)
			a.Alloc()
			if newest {
				a.FreeNewest(2)
			} else {
				a.FreeOldest(2)
			}
		}()
	}
}

// TestArenaAllocFullPanics pins the overflow guard: the arena is sized so the
// pipeline can never exceed it, and a 257th live allocation is a bug, not a
// condition to handle.
func TestArenaAllocFullPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Alloc on a full arena did not panic")
		}
	}()
	a := NewArena(4)
	for i := 0; i < len(a.buf)+1; i++ {
		a.Alloc()
	}
}
