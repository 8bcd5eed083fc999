package ftq

import (
	"testing"
	"testing/quick"

	"fdip/internal/isa"
)

// Empty reports whether the queue is empty.
func (q *Queue) Empty() bool { return q.count == 0 }

// Push appends a block, computing its line decomposition. It returns false
// (and counts a stall) when the queue is full. The slot's previous line
// buffer is reused, so steady-state pushes do not allocate. The machine
// pushes in place with PushSlot/CommitPush; this copying form is for tests.
func (q *Queue) Push(b Block) bool {
	s := q.PushSlot()
	if s == nil {
		return false
	}
	lines := s.Lines
	*s = b
	s.Lines = lines
	q.CommitPush()
	return true
}

// Scan calls fn for blocks starting at index from (0 == head) until fn
// returns false or the queue is exhausted.
func (q *Queue) Scan(from int, fn func(idx int, b *Block) bool) {
	for i := from; i < q.count; i++ {
		if !fn(i, q.At(i)) {
			return
		}
	}
}

func TestPushPopFIFO(t *testing.T) {
	q := New(4, 32)
	for i := 0; i < 4; i++ {
		if !q.Push(Block{Seq: uint64(i), Start: uint64(0x1000 + i*64), NumInstrs: 4}) {
			t.Fatalf("Push %d failed", i)
		}
	}
	if !q.Full() {
		t.Error("queue not full")
	}
	if q.Push(Block{Seq: 99, Start: 0x9000, NumInstrs: 4}) {
		t.Error("Push into full queue succeeded")
	}
	if q.FullStalls != 1 {
		t.Errorf("FullStalls = %d", q.FullStalls)
	}
	for i := 0; i < 4; i++ {
		h := q.Head()
		if h == nil || h.Seq != uint64(i) {
			t.Fatalf("Head seq = %v, want %d", h, i)
		}
		q.PopHead()
	}
	if !q.Empty() {
		t.Error("queue not empty after draining")
	}
	if q.Head() != nil {
		t.Error("Head on empty queue non-nil")
	}
}

func TestLineDecomposition(t *testing.T) {
	q := New(8, 32)
	// Block of 6 instrs starting 8 bytes before a line boundary spans 2
	// lines: [0x1018, 0x1030).
	q.Push(Block{Start: 0x1018, NumInstrs: 6})
	b := q.Head()
	if len(b.Lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(b.Lines))
	}
	if b.Lines[0].Addr != 0x1000 || b.Lines[1].Addr != 0x1020 {
		t.Errorf("line addrs = %#x %#x", b.Lines[0].Addr, b.Lines[1].Addr)
	}
	for _, ln := range b.Lines {
		if ln.State != LineCandidate {
			t.Errorf("fresh line state = %v", ln.State)
		}
	}
	// Single-instruction block spans exactly one line.
	q.Push(Block{Start: 0x2000, NumInstrs: 1})
	if got := len(q.At(1).Lines); got != 1 {
		t.Errorf("single-instr lines = %d", got)
	}
}

func TestLineStateSticksAcrossScan(t *testing.T) {
	q := New(8, 32)
	q.Push(Block{Start: 0x1000, NumInstrs: 8})
	q.Push(Block{Start: 0x2000, NumInstrs: 8})
	q.At(1).Lines[0].State = LineEnqueued
	found := false
	q.Scan(1, func(i int, b *Block) bool {
		if b.Start == 0x2000 && b.Lines[0].State == LineEnqueued {
			found = true
		}
		return true
	})
	if !found {
		t.Error("line state lost between Scan calls")
	}
}

func TestScanRange(t *testing.T) {
	q := New(8, 32)
	for i := 0; i < 5; i++ {
		q.Push(Block{Seq: uint64(i), Start: uint64(0x1000 + i*32), NumInstrs: 4})
	}
	var seen []uint64
	q.Scan(1, func(i int, b *Block) bool {
		seen = append(seen, b.Seq)
		return true
	})
	if len(seen) != 4 || seen[0] != 1 || seen[3] != 4 {
		t.Errorf("Scan(1) saw %v", seen)
	}
	// Early stop.
	n := 0
	q.Scan(0, func(i int, b *Block) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Errorf("early-stop scan visited %d", n)
	}
}

func TestSquash(t *testing.T) {
	q := New(4, 32)
	q.Push(Block{Start: 0x1000, NumInstrs: 4})
	q.Push(Block{Start: 0x2000, NumInstrs: 4})
	q.Squash()
	if !q.Empty() || q.Squashes != 1 {
		t.Errorf("after squash: len=%d squashes=%d", q.Len(), q.Squashes)
	}
	// Queue is reusable after squash.
	if !q.Push(Block{Start: 0x3000, NumInstrs: 4}) {
		t.Error("Push after squash failed")
	}
	if q.Head().Start != 0x3000 {
		t.Error("head wrong after squash+push")
	}
}

func TestWrapAround(t *testing.T) {
	q := New(3, 32)
	seq := uint64(0)
	push := func() {
		if !q.Push(Block{Seq: seq, Start: 0x1000 + seq*128, NumInstrs: 4}) {
			t.Fatalf("push %d failed", seq)
		}
		seq++
	}
	push()
	push()
	q.PopHead()
	push()
	push() // wraps
	want := uint64(1)
	for !q.Empty() {
		if q.Head().Seq != want {
			t.Fatalf("head seq = %d, want %d", q.Head().Seq, want)
		}
		q.PopHead()
		want++
	}
	if want != 4 {
		t.Errorf("drained %d entries, want 3", want-1)
	}
}

func TestBlockHelpers(t *testing.T) {
	b := Block{Start: 0x1000, NumInstrs: 4}
	if b.End() != 0x1010 {
		t.Errorf("End = %#x", b.End())
	}
	if b.NextFetchPC() != 0x1000 {
		t.Errorf("NextFetchPC = %#x", b.NextFetchPC())
	}
	b.FetchedInstrs = 2
	if b.NextFetchPC() != 0x1008 {
		t.Errorf("NextFetchPC = %#x", b.NextFetchPC())
	}
	if b.Done() {
		t.Error("Done early")
	}
	b.FetchedInstrs = 4
	if !b.Done() {
		t.Error("not Done")
	}
}

func TestAtOutOfRange(t *testing.T) {
	q := New(4, 32)
	q.Push(Block{Start: 0x1000, NumInstrs: 1})
	if q.At(-1) != nil || q.At(1) != nil {
		t.Error("At out of range returned entry")
	}
}

func TestLineStateString(t *testing.T) {
	for _, s := range []LineState{LineCandidate, LineEnqueued, LinePrefetched, LineFiltered, LineState(77)} {
		if s.String() == "" {
			t.Errorf("state %d: empty string", s)
		}
	}
}

// Property: FIFO order is preserved under arbitrary push/pop interleavings,
// and every block's lines cover exactly [Start, End).
func TestQuickFIFOAndLineCover(t *testing.T) {
	q := New(8, 32)
	var model []uint64
	seq := uint64(0)
	f := func(push bool, nInstr uint8) bool {
		if push && !q.Full() {
			n := 1 + int(nInstr)%8
			b := Block{Seq: seq, Start: 0x1000 + seq*64, NumInstrs: n}
			q.Push(b)
			model = append(model, seq)
			seq++
			// Check line cover of the entry just pushed.
			e := q.At(q.Len() - 1)
			first := e.Lines[0].Addr
			last := e.Lines[len(e.Lines)-1].Addr
			if first > e.Start || last+32 < e.End() {
				return false
			}
			for i := 1; i < len(e.Lines); i++ {
				if e.Lines[i].Addr != e.Lines[i-1].Addr+32 {
					return false
				}
			}
		} else if !q.Empty() {
			h := q.Head()
			if h.Seq != model[0] {
				return false
			}
			model = model[1:]
			q.PopHead()
		}
		return q.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	_ = isa.InstrBytes
}
