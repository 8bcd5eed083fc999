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

// Branches returns the image's behaviour records in address order. Callers
// must not modify them.
func (im *Image) Branches() []Branch { return im.behav }

// End returns the first byte address past the image.
func (im *Image) End() uint64 { return im.Base + im.Size() }

// instrs decodes every instruction of im, in address order.
func instrs(im *Image) []isa.Instr {
	code := make([]isa.Instr, len(im.code))
	for i := range code {
		code[i], _ = im.InstrAt(im.Base + uint64(i)*isa.InstrBytes)
	}
	return code
}

// TestGenerateDefaultValidates generates the default program, which New
// validates on the way out.
func TestGenerateDefaultValidates(t *testing.T) {
	im, err := Generate(DefaultParams())
	if err != nil {
		t.Fatalf("Generate: %v", err)
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
	if !reflect.DeepEqual(a.code, b.code) {
		t.Fatal("same seed produced different code")
	}
	p.Seed = 43
	c := MustGenerate(p)
	if reflect.DeepEqual(a.code, c.code) {
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
	for i, ins := range instrs(im) {
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
	for i, ins := range instrs(im) {
		if ins.Kind != isa.CondBranch {
			continue
		}
		pc := im.Base + uint64(i)*isa.InstrBytes
		if ins.Target <= pc && im.BehaviorAt(pc).Model != ModelLoop {
			t.Fatalf("backward conditional at %#x is not a loop model", pc)
		}
	}
}

// TestValidateRejectsCorruption corrupts the parts of a generated image one
// way at a time and requires New to refuse each.
func TestValidateRejectsCorruption(t *testing.T) {
	p := DefaultParams()
	p.NumFuncs = 20
	im := MustGenerate(p)
	// firstOf returns the word index of the first instruction of kind k.
	firstOf := func(code []isa.Instr, k isa.Kind) int {
		for i, ins := range code {
			if ins.Kind == k {
				return i
			}
		}
		t.Fatalf("no %v in image", k)
		return 0
	}
	// recordOf returns the position in behav of word w's record.
	recordOf := func(behav []Branch, w int) int {
		for r, b := range behav {
			if int(b.Word) == w {
				return r
			}
		}
		t.Fatalf("word %d has no record", w)
		return 0
	}
	// insert adds b to behav at its address-ordered position.
	insert := func(behav []Branch, b Branch) []Branch {
		r := sort.Search(len(behav), func(r int) bool { return behav[r].Word > b.Word })
		return slices.Insert(behav, r, b)
	}
	biased := Behavior{Model: ModelBiased, TakenProb: 0.5}
	indirect := Behavior{Model: ModelIndirect, Targets: []uint64{im.Entry}}

	cases := []struct {
		name    string
		corrupt func(code []isa.Instr, behav []Branch) []Branch
	}{
		{"out-of-image jump target", func(code []isa.Instr, behav []Branch) []Branch {
			code[firstOf(code, isa.Jump)].Target = im.End() + 64
			return behav
		}},
		{"unaligned call target", func(code []isa.Instr, behav []Branch) []Branch {
			code[firstOf(code, isa.Call)].Target += 2
			return behav
		}},
		{"target on a non-CTI", func(code []isa.Instr, behav []Branch) []Branch {
			code[firstOf(code, isa.ALU)].Target = im.Entry
			return behav
		}},
		{"target on a return", func(code []isa.Instr, behav []Branch) []Branch {
			code[firstOf(code, isa.Ret)].Target = im.Entry
			return behav
		}},
		{"unknown kind", func(code []isa.Instr, behav []Branch) []Branch {
			code[firstOf(code, isa.ALU)].Kind = isa.Kind(isa.NumKinds)
			return behav
		}},
		{"empty indirect target set", func(code []isa.Instr, behav []Branch) []Branch {
			behav[recordOf(behav, firstOf(code, isa.IndirectCall))].Targets = nil
			return behav
		}},
		{"unsorted records", func(code []isa.Instr, behav []Branch) []Branch {
			behav[3], behav[4] = behav[4], behav[3]
			return behav
		}},
		{"duplicate record", func(code []isa.Instr, behav []Branch) []Branch {
			return slices.Insert(behav, 5, behav[5])
		}},
		{"record past the image", func(code []isa.Instr, behav []Branch) []Branch {
			return append(behav, Branch{Word: int32(len(code)), Behavior: biased})
		}},
		{"record before the image", func(code []isa.Instr, behav []Branch) []Branch {
			return slices.Insert(behav, 0, Branch{Word: -1, Behavior: biased})
		}},
		{"record on a non-CTI", func(code []isa.Instr, behav []Branch) []Branch {
			return insert(behav, Branch{Word: int32(firstOf(code, isa.ALU)), Behavior: biased})
		}},
		{"record on a jump", func(code []isa.Instr, behav []Branch) []Branch {
			return insert(behav, Branch{Word: int32(firstOf(code, isa.Jump)), Behavior: biased})
		}},
		{"record on a call", func(code []isa.Instr, behav []Branch) []Branch {
			return insert(behav, Branch{Word: int32(firstOf(code, isa.Call)), Behavior: indirect})
		}},
		{"record on a return", func(code []isa.Instr, behav []Branch) []Branch {
			return insert(behav, Branch{Word: int32(firstOf(code, isa.Ret)), Behavior: indirect})
		}},
		{"missing record on a conditional", func(code []isa.Instr, behav []Branch) []Branch {
			r := recordOf(behav, firstOf(code, isa.CondBranch))
			return slices.Delete(behav, r, r+1)
		}},
		{"missing record on an indirect jump", func(code []isa.Instr, behav []Branch) []Branch {
			r := recordOf(behav, firstOf(code, isa.IndirectJump))
			return slices.Delete(behav, r, r+1)
		}},
		{"conditional with no model", func(code []isa.Instr, behav []Branch) []Branch {
			behav[recordOf(behav, firstOf(code, isa.CondBranch))].Behavior = Behavior{}
			return behav
		}},
		{"conditional with an indirect model", func(code []isa.Instr, behav []Branch) []Branch {
			behav[recordOf(behav, firstOf(code, isa.CondBranch))].Behavior = indirect
			return behav
		}},
	}
	for _, tc := range cases {
		code, behav := instrs(im), slices.Clone(im.behav)
		if _, err := New(im.Base, im.Entry, code, tc.corrupt(code, behav), im.Funcs); err == nil {
			t.Errorf("%s: not rejected", tc.name)
		}
	}
	for _, tc := range []struct {
		name        string
		base, entry uint64
	}{
		{"unaligned base", im.Base + 2, im.Entry + 2},
		{"entry past the image", im.Base, im.End()},
		{"unaligned entry", im.Base, im.Entry + 1},
	} {
		if _, err := New(tc.base, tc.entry, instrs(im), slices.Clone(im.behav), im.Funcs); err == nil {
			t.Errorf("%s: not rejected", tc.name)
		}
	}
	// The uncorrupted parts rebuild the identical image.
	again, err := New(im.Base, im.Entry, instrs(im), slices.Clone(im.behav), im.Funcs)
	if err != nil {
		t.Fatalf("uncorrupted image rejected: %v", err)
	}
	if !reflect.DeepEqual(again, im) {
		t.Error("rebuilding an image from its decoded parts changed it")
	}
	// Adjacent conditionals, where a duplicated record would otherwise
	// slide onto the next word: only the order check catches it.
	adjacent := func(second int32) error {
		code := []isa.Instr{
			{Kind: isa.CondBranch, Target: 0x1000},
			{Kind: isa.CondBranch, Target: 0x1000},
			{Kind: isa.Jump, Target: 0x1000},
		}
		_, err := New(0x1000, 0x1000, code, []Branch{{Word: 0, Behavior: biased}, {Word: second, Behavior: biased}}, nil)
		return err
	}
	if err := adjacent(1); err != nil {
		t.Fatalf("adjacent conditionals rejected: %v", err)
	}
	if err := adjacent(0); err == nil {
		t.Error("duplicate record on adjacent conditionals not rejected")
	}
	if _, err := New(0x1000, 0x1000, nil, nil, nil); err == nil {
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
		_, err := Generate(p)
		return err == nil
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
	if total != len(im.code) {
		t.Errorf("kind counts sum %d != code len %d", total, len(im.code))
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

// TestStaticTablesConcurrentFirstUse reads a freshly built image's code
// words and rank index from many goroutines at once, as engine workers
// sharing a cached image do. New builds every table before it returns, so
// no reader writes (run under -race) and every reader sees one image.
func TestStaticTablesConcurrentFirstUse(t *testing.T) {
	p := DefaultParams()
	p.NumFuncs = 40
	im := MustGenerate(p)
	const n = 8
	sums := make([]uint64, n)
	done := make(chan struct{})
	for g := 0; g < n; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			var sum uint64
			for pc := im.Base; pc < im.End(); pc += isa.InstrBytes {
				ins, _ := im.InstrAt(pc)
				sum = sum*31 + ins.Target + uint64(im.SchedWord(pc))
				if b := im.BehaviorAt(pc); b.Model != ModelNone {
					rec, slot := im.Record(pc)
					sum = sum*31 + uint64(rec.Word) + uint64(slot)
				}
			}
			sums[g] = sum
		}()
	}
	for g := 0; g < n; g++ {
		<-done
	}
	for g := 1; g < n; g++ {
		if sums[g] != sums[0] {
			t.Fatalf("goroutine %d read a different image than goroutine 0", g)
		}
	}
}

// TestSchedWord: every instruction's scheduler word is its SchedPack,
// whether its code word carries it or, for a direct CTI, its operands do.
func TestSchedWord(t *testing.T) {
	im := MustGenerate(DefaultParams())
	for i, ins := range instrs(im) {
		if got, want := im.SchedWord(im.Base+uint64(i)*isa.InstrBytes), ins.SchedPack(); got != want {
			t.Fatalf("word %d (%v): SchedWord %#x, want %#x", i, ins, got, want)
		}
	}
	// A direct CTI with operands, which generated images never have.
	code := []isa.Instr{{Kind: isa.Jump, Dst: 3, Src1: 4, Src2: isa.NoReg, Target: 0x1000}}
	hand, err := New(0x1000, 0x1000, code, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := hand.SchedWord(0x1000), code[0].SchedPack(); got != want {
		t.Errorf("direct CTI with operands: SchedWord %#x, want %#x", got, want)
	}
}
