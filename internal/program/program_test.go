package program

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"fdip/internal/isa"
)

func TestGenerateDefaultValidates(t *testing.T) {
	im, err := Generate(DefaultParams())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if err := im.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if im.Entry != im.Funcs[0].Entry {
		t.Errorf("entry %#x != first function entry %#x", im.Entry, im.Funcs[0].Entry)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := DefaultParams()
	p.Seed = 42
	a := MustGenerate(p)
	b := MustGenerate(p)
	if !reflect.DeepEqual(a.Code, b.Code) {
		t.Fatal("same seed produced different code")
	}
	p.Seed = 43
	c := MustGenerate(p)
	if reflect.DeepEqual(a.Code, c.Code) {
		t.Fatal("different seeds produced identical code")
	}
}

func TestGenerateFootprintScalesWithFuncs(t *testing.T) {
	small := DefaultParams()
	small.NumFuncs = 50
	big := DefaultParams()
	big.NumFuncs = 500
	s, b := MustGenerate(small), MustGenerate(big)
	if b.Size() < 5*s.Size() {
		t.Errorf("10x functions gave %.1fx code (small=%d big=%d)",
			float64(b.Size())/float64(s.Size()), s.Size(), b.Size())
	}
}

func TestInstrAtBounds(t *testing.T) {
	im := MustGenerate(DefaultParams())
	if _, ok := im.InstrAt(im.Base - 4); ok {
		t.Error("InstrAt below base succeeded")
	}
	if _, ok := im.InstrAt(im.End()); ok {
		t.Error("InstrAt at End succeeded")
	}
	if _, ok := im.InstrAt(im.Base + 1); ok {
		t.Error("InstrAt unaligned succeeded")
	}
	if _, ok := im.InstrAt(im.Base); !ok {
		t.Error("InstrAt base failed")
	}
	if _, ok := im.InstrAt(im.End() - 4); !ok {
		t.Error("InstrAt last instruction failed")
	}
}

func TestFuncOf(t *testing.T) {
	im := MustGenerate(DefaultParams())
	for i := range im.Funcs {
		f := &im.Funcs[i]
		if got := im.FuncOf(f.Entry); got != f {
			t.Fatalf("FuncOf(%#x) = %v, want %s", f.Entry, got, f.Name)
		}
		last := f.Entry + uint64(f.NumInstrs-1)*isa.InstrBytes
		if got := im.FuncOf(last); got != f {
			t.Fatalf("FuncOf(last of %s) = %v", f.Name, got)
		}
	}
	if im.FuncOf(im.Base-4) != nil {
		t.Error("FuncOf below image should be nil")
	}
	if im.FuncOf(im.End()) != nil {
		t.Error("FuncOf past image should be nil")
	}
}

func TestCTIsHaveBehaviour(t *testing.T) {
	im := MustGenerate(DefaultParams())
	conds, loops, indirects := 0, 0, 0
	for i, ins := range im.Code {
		b := im.Behav[i]
		switch ins.Kind {
		case isa.CondBranch:
			conds++
			if b.Model == ModelLoop {
				loops++
			}
		case isa.IndirectCall, isa.IndirectJump:
			indirects++
			if b.Model != ModelIndirect || len(b.Targets) == 0 {
				t.Fatalf("indirect at word %d lacks targets", i)
			}
		}
	}
	if conds == 0 {
		t.Error("no conditional branches generated")
	}
	if loops == 0 {
		t.Error("no loop branches generated")
	}
	if indirects == 0 {
		t.Error("no indirect CTIs generated")
	}
}

func TestBackwardBranchesAreLoops(t *testing.T) {
	im := MustGenerate(DefaultParams())
	for i, ins := range im.Code {
		if ins.Kind != isa.CondBranch {
			continue
		}
		pc := im.Base + uint64(i)*isa.InstrBytes
		if ins.Target <= pc && im.Behav[i].Model != ModelLoop {
			t.Fatalf("backward conditional at %#x is not a loop model", pc)
		}
	}
}

func TestValidateRejectsCorruption(t *testing.T) {
	fresh := func() *Image {
		p := DefaultParams()
		p.NumFuncs = 20
		return MustGenerate(p)
	}

	im := fresh()
	// Out-of-image CTI target.
	for i, ins := range im.Code {
		if ins.Kind == isa.Jump {
			im.Code[i].Target = im.End() + 64
			break
		}
	}
	if err := im.Validate(); err == nil {
		t.Error("corrupt jump target not rejected")
	}

	im = fresh()
	// Behaviour on a non-CTI.
	for i, ins := range im.Code {
		if ins.Kind == isa.ALU {
			im.Behav[i] = Behavior{Model: ModelBiased, TakenProb: 0.5}
			break
		}
	}
	if err := im.Validate(); err == nil {
		t.Error("behaviour on non-CTI not rejected")
	}

	im = fresh()
	// Indirect CTI with no targets.
	for i, ins := range im.Code {
		if ins.Kind == isa.IndirectCall {
			im.Behav[i].Targets = nil
			break
		}
	}
	if err := im.Validate(); err == nil {
		t.Error("empty indirect target set not rejected")
	}

	if err := (&Image{}).Validate(); err == nil {
		t.Error("empty image not rejected")
	}
}

func TestGenerateRejectsBadParams(t *testing.T) {
	p := DefaultParams()
	p.CodeBase = 0x1001 // unaligned
	if _, err := Generate(p); err == nil {
		t.Error("unaligned CodeBase accepted")
	}
}

// Property: any generated image validates and every direct CTI target lands
// on a function-interior instruction.
func TestQuickGeneratedImagesValid(t *testing.T) {
	f := func(seed int64, nf uint8, mb, ml uint8) bool {
		p := DefaultParams()
		p.Seed = seed
		p.NumFuncs = 2 + int(nf)%64
		p.MeanBlocksPerFunc = 2 + int(mb)%16
		p.MeanBlockLen = 1 + int(ml)%10
		im, err := Generate(p)
		if err != nil {
			return false
		}
		return im.Validate() == nil
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestKindCountsAndBranchCount(t *testing.T) {
	im := MustGenerate(DefaultParams())
	counts := im.KindCounts()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != len(im.Code) {
		t.Errorf("kind counts sum %d != code len %d", total, len(im.Code))
	}
	br := im.StaticBranchCount()
	want := counts[isa.CondBranch] + counts[isa.Jump] + counts[isa.Call] +
		counts[isa.Ret] + counts[isa.IndirectJump] + counts[isa.IndirectCall]
	if br != want {
		t.Errorf("StaticBranchCount = %d, want %d", br, want)
	}
	if br == 0 {
		t.Error("no branches in image")
	}
}

func TestBehaviorAtOutside(t *testing.T) {
	im := MustGenerate(DefaultParams())
	if b := im.BehaviorAt(im.End() + 8); b.Model != ModelNone {
		t.Error("BehaviorAt outside image should be zero")
	}
}

func TestBranchModelString(t *testing.T) {
	for _, m := range []BranchModel{ModelNone, ModelBiased, ModelLoop, ModelIndirect} {
		if m.String() == "" {
			t.Errorf("model %d: empty name", m)
		}
	}
	if BranchModel(99).String() == "" {
		t.Error("unknown model should format")
	}
}

// TestStaticTables checks the image-owned tables against their definitions:
// the scheduler table is SchedPack per instruction, and the walker slots
// number exactly the stateful instructions densely in address order.
func TestStaticTables(t *testing.T) {
	im := MustGenerate(DefaultParams())
	sched := im.SchedWords()
	if len(sched) != len(im.Code) {
		t.Fatalf("sched table has %d entries; want %d", len(sched), len(im.Code))
	}
	slots, n := im.WalkerSlots()
	next := 0
	for i := range im.Code {
		ins := &im.Code[i]
		if sched[i] != ins.SchedPack() {
			t.Fatalf("sched[%d] = %#x; want %#x", i, sched[i], ins.SchedPack())
		}
		if hasWalkerState(ins.Kind, im.Behav[i].Model) {
			if slots[i] != uint32(next) {
				t.Fatalf("slot[%d] = %d; want %d", i, slots[i], next)
			}
			next++
		}
	}
	if n != next {
		t.Fatalf("WalkerSlots counts %d stateful instructions; want %d", n, next)
	}
	// A few percent of instructions carry walker state; the compact
	// walker's size advantage rests on that.
	if n == 0 || n > len(im.Code)/10 {
		t.Errorf("%d of %d instructions carry walker state; want a small nonzero share", n, len(im.Code))
	}
	if again := im.SchedWords(); &again[0] != &sched[0] {
		t.Error("SchedWords rebuilt its table; want one derivation per image")
	}
}

// TestStaticTablesConcurrentFirstUse derives an image's tables from many
// goroutines at once, as engine workers sharing a cached image do; every
// caller must see the same published tables. Run under -race.
func TestStaticTablesConcurrentFirstUse(t *testing.T) {
	p := DefaultParams()
	p.NumFuncs = 40
	im := MustGenerate(p)
	const n = 8
	got := make([]*uint32, n)
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			if i%2 == 0 {
				slots, _ := im.WalkerSlots()
				_ = slots[len(slots)-1]
			}
			got[i] = &im.SchedWords()[0]
		}()
	}
	for i := 0; i < n; i++ {
		<-done
	}
	for i := 1; i < n; i++ {
		if got[i] != got[0] {
			t.Fatalf("goroutine %d saw a different scheduler table than goroutine 0", i)
		}
	}
}
