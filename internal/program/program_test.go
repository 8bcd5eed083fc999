package program

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"fdip/internal/isa"
)

// MustGenerate is Generate for known-good params.
func MustGenerate(p Params) *Image {
	im, err := Generate(p)
	if err != nil {
		panic(err)
	}
	return im
}

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
		b := im.BehaviorAt(im.Base + uint64(i)*isa.InstrBytes)
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
		if ins.Target <= pc && im.BehaviorAt(pc).Model != ModelLoop {
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
	// firstOf returns the word index of the first instruction of kind k.
	firstOf := func(im *Image, k isa.Kind) int {
		for i, ins := range im.Code {
			if ins.Kind == k {
				return i
			}
		}
		t.Fatalf("no %v in image", k)
		return 0
	}
	// recordOf returns the position in Behav of word w's record.
	recordOf := func(im *Image, w int) int {
		for r, b := range im.Behav {
			if b.Word == w {
				return r
			}
		}
		t.Fatalf("word %d has no record", w)
		return 0
	}
	// insert adds b to Behav at its address-ordered position.
	insert := func(im *Image, b Branch) {
		r := sort.Search(len(im.Behav), func(r int) bool { return im.Behav[r].Word > b.Word })
		im.Behav = slices.Insert(im.Behav, r, b)
	}
	biased := Behavior{Model: ModelBiased, TakenProb: 0.5}

	cases := []struct {
		name    string
		corrupt func(im *Image)
	}{
		{"out-of-image jump target", func(im *Image) {
			im.Code[firstOf(im, isa.Jump)].Target = im.End() + 64
		}},
		{"empty indirect target set", func(im *Image) {
			im.Behav[recordOf(im, firstOf(im, isa.IndirectCall))].Targets = nil
		}},
		{"unsorted records", func(im *Image) {
			im.Behav[3], im.Behav[4] = im.Behav[4], im.Behav[3]
		}},
		{"duplicate record", func(im *Image) {
			im.Behav = slices.Insert(im.Behav, 5, im.Behav[5])
		}},
		{"record past the image", func(im *Image) {
			im.Behav = append(im.Behav, Branch{Word: len(im.Code), Behavior: biased})
		}},
		{"record before the image", func(im *Image) {
			im.Behav = slices.Insert(im.Behav, 0, Branch{Word: -1, Behavior: biased})
		}},
		{"record on a non-CTI", func(im *Image) {
			insert(im, Branch{Word: firstOf(im, isa.ALU), Behavior: biased})
		}},
		{"record on a jump", func(im *Image) {
			insert(im, Branch{Word: firstOf(im, isa.Jump), Behavior: biased})
		}},
		{"record on a call", func(im *Image) {
			insert(im, Branch{Word: firstOf(im, isa.Call), Behavior: Behavior{Model: ModelIndirect, Targets: []uint64{im.Entry}}})
		}},
		{"record on a return", func(im *Image) {
			insert(im, Branch{Word: firstOf(im, isa.Ret), Behavior: Behavior{Model: ModelIndirect, Targets: []uint64{im.Entry}}})
		}},
		{"missing record on a conditional", func(im *Image) {
			r := recordOf(im, firstOf(im, isa.CondBranch))
			im.Behav = slices.Delete(im.Behav, r, r+1)
		}},
		{"missing record on an indirect jump", func(im *Image) {
			r := recordOf(im, firstOf(im, isa.IndirectJump))
			im.Behav = slices.Delete(im.Behav, r, r+1)
		}},
		{"conditional with no model", func(im *Image) {
			im.Behav[recordOf(im, firstOf(im, isa.CondBranch))].Behavior = Behavior{}
		}},
	}
	for _, tc := range cases {
		im := fresh()
		tc.corrupt(im)
		if err := im.Validate(); err == nil {
			t.Errorf("%s: not rejected", tc.name)
		}
	}
	if err := fresh().Validate(); err != nil {
		t.Fatalf("uncorrupted image rejected: %v", err)
	}
	// Adjacent conditionals, where a duplicated record would otherwise
	// slide onto the next word: only the order check catches it.
	adjacent := &Image{
		Base: 0x1000,
		Code: []isa.Instr{
			{Kind: isa.CondBranch, Target: 0x1000},
			{Kind: isa.CondBranch, Target: 0x1000},
			{Kind: isa.Jump, Target: 0x1000},
		},
		Behav: []Branch{{Word: 0, Behavior: biased}, {Word: 1, Behavior: biased}},
		Entry: 0x1000,
	}
	if err := adjacent.Validate(); err != nil {
		t.Fatalf("adjacent conditionals rejected: %v", err)
	}
	adjacent.Behav[1].Word = 0
	if err := adjacent.Validate(); err == nil {
		t.Error("duplicate record on adjacent conditionals not rejected")
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
				ord, _, _ := im.BehaviorIndex()
				_ = ord[len(ord)-1]
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
