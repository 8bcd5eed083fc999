package bpred

import (
	"math/rand"
	"testing"
)

func TestRASPushPop(t *testing.T) {
	r := NewRAS(8)
	r.Push(0x100)
	r.Push(0x200)
	if got, ok := r.Pop(); !ok || got != 0x200 {
		t.Errorf("Pop = %#x,%v", got, ok)
	}
	if got, ok := r.Pop(); !ok || got != 0x100 {
		t.Errorf("Pop = %#x,%v", got, ok)
	}
	if _, ok := r.Pop(); ok {
		t.Error("Pop on empty succeeded")
	}
	if r.Underflows != 1 {
		t.Errorf("Underflows = %d", r.Underflows)
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := NewRAS(4)
	for i := 1; i <= 6; i++ {
		r.Push(uint64(i * 0x10))
	}
	// Capacity 4: the two oldest entries were overwritten.
	want := []uint64{0x60, 0x50, 0x40, 0x30}
	for _, w := range want {
		got, ok := r.Pop()
		if !ok || got != w {
			t.Fatalf("Pop = %#x,%v want %#x", got, ok, w)
		}
	}
	// After wrap, the remaining "entries" are stale; depth must be 0.
	if r.len != 0 {
		t.Errorf("Depth = %d after draining", r.len)
	}
}

func TestRASCheckpointRestore(t *testing.T) {
	r := NewRAS(8)
	r.Push(0x100)
	r.Push(0x200)
	cp := r.Checkpoint()
	// Wrong path: pop both, push garbage.
	r.Pop()
	r.Pop()
	r.Push(0xdead)
	r.Restore(cp)
	if got, ok := r.top(); !ok || got != 0x200 {
		t.Errorf("after restore Top = %#x,%v", got, ok)
	}
	if got, ok := r.Pop(); !ok || got != 0x200 {
		t.Errorf("after restore Pop = %#x,%v", got, ok)
	}
	// sp+top repair restores the stack shape and the top entry; deeper
	// entries clobbered by wrong-path pushes stay corrupted — that is the
	// documented (and hardware-realistic) fidelity of this mechanism, so
	// only the depth is asserted here.
	if _, ok := r.Pop(); !ok {
		t.Error("after restore stack depth wrong")
	}
	if r.len != 0 {
		t.Errorf("after draining Depth = %d", r.len)
	}
}

func TestRASCheckpointRepairsClobberedTop(t *testing.T) {
	r := NewRAS(4)
	r.Push(0x100)
	cp := r.Checkpoint()
	// Wrong path pops 0x100 then pushes over the same slot.
	r.Pop()
	r.Push(0xbad)
	r.Pop()
	r.Restore(cp)
	if got, ok := r.top(); !ok || got != 0x100 {
		t.Errorf("clobbered top not repaired: %#x,%v", got, ok)
	}
}

func TestRASEmptyCheckpoint(t *testing.T) {
	r := NewRAS(4)
	cp := r.Checkpoint()
	r.Push(0x1)
	r.Push(0x2)
	r.Restore(cp)
	if r.len != 0 {
		t.Errorf("Depth = %d, want 0", r.len)
	}
	if _, ok := r.top(); ok {
		t.Error("Top on restored-empty stack succeeded")
	}
}

func TestRASRandomizedAgainstModel(t *testing.T) {
	// Against a reference unbounded stack, bounded only by capacity: as
	// long as depth never exceeds capacity, RAS == model.
	r := NewRAS(16)
	var model []uint64
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 10_000; i++ {
		if rng.Intn(2) == 0 && len(model) < 16 {
			v := rng.Uint64()
			r.Push(v)
			model = append(model, v)
		} else {
			got, ok := r.Pop()
			if len(model) == 0 {
				if ok {
					t.Fatalf("step %d: Pop on empty returned %#x", i, got)
				}
				continue
			}
			want := model[len(model)-1]
			model = model[:len(model)-1]
			if !ok || got != want {
				t.Fatalf("step %d: Pop = %#x,%v want %#x", i, got, ok, want)
			}
		}
	}
}

// top returns r's current top without popping.
func (r *RAS) top() (addr uint64, ok bool) {
	if r.len == 0 {
		return 0, false
	}
	return r.buf[r.sp], true
}

func TestRASStorage(t *testing.T) {
	if got := len(NewRAS(32).buf); got != 32 {
		t.Errorf("capacity = %d", got)
	}
}
