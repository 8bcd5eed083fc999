package isa

import "testing"

// IsConditional reports whether k transfers control only when taken.
func (k Kind) IsConditional() bool { return k == CondBranch }

// IsUnconditional reports whether k always transfers control.
func (k Kind) IsUnconditional() bool { return k.IsCTI() && k != CondBranch }

// Align returns addr rounded down to instruction alignment.
func Align(addr uint64) uint64 { return addr &^ uint64(InstrBytes-1) }

func TestKindClassification(t *testing.T) {
	ctis := []Kind{CondBranch, Jump, Call, Ret, IndirectJump, IndirectCall}
	nonCTIs := []Kind{Nop, ALU, Mul, Load, Store, FPU}
	for _, k := range ctis {
		if !k.IsCTI() {
			t.Errorf("%v: IsCTI = false, want true", k)
		}
	}
	for _, k := range nonCTIs {
		if k.IsCTI() {
			t.Errorf("%v: IsCTI = true, want false", k)
		}
		if k.IsConditional() || k.IsUnconditional() {
			t.Errorf("%v: non-CTI classified as branch", k)
		}
	}
}

func TestConditionalVsUnconditional(t *testing.T) {
	if !CondBranch.IsConditional() {
		t.Error("CondBranch not conditional")
	}
	if CondBranch.IsUnconditional() {
		t.Error("CondBranch reported unconditional")
	}
	for _, k := range []Kind{Jump, Call, Ret, IndirectJump, IndirectCall} {
		if !k.IsUnconditional() {
			t.Errorf("%v: want unconditional", k)
		}
	}
}

func TestCallReturnIndirect(t *testing.T) {
	if !Call.IsCall() || !IndirectCall.IsCall() {
		t.Error("call kinds misclassified")
	}
	if Jump.IsCall() || Ret.IsCall() {
		t.Error("non-call classified as call")
	}
	if !Ret.IsReturn() {
		t.Error("Ret not a return")
	}
	for _, k := range []Kind{Ret, IndirectJump, IndirectCall} {
		if !k.IsIndirect() {
			t.Errorf("%v: want indirect", k)
		}
	}
	for _, k := range []Kind{CondBranch, Jump, Call} {
		if k.IsIndirect() {
			t.Errorf("%v: want direct", k)
		}
	}
}

func TestLatencyPositive(t *testing.T) {
	for k := Kind(0); int(k) < NumKinds; k++ {
		if k.Latency() < 1 {
			t.Errorf("%v: latency %d < 1", k, k.Latency())
		}
	}
	if Mul.Latency() <= ALU.Latency() {
		t.Error("Mul should be slower than ALU")
	}
}

func TestAlignAndNextPC(t *testing.T) {
	if Align(0x1003) != 0x1000 {
		t.Errorf("Align(0x1003) = %#x", Align(0x1003))
	}
	if Align(0x1000) != 0x1000 {
		t.Errorf("Align(0x1000) = %#x", Align(0x1000))
	}
	if NextPC(0x1000) != 0x1004 {
		t.Errorf("NextPC(0x1000) = %#x", NextPC(0x1000))
	}
}

func TestWordIndex(t *testing.T) {
	if got := WordIndex(0x1010, 0x1000); got != 4 {
		t.Errorf("WordIndex = %d, want 4", got)
	}
}

func TestKindString(t *testing.T) {
	for k := Kind(0); int(k) < NumKinds; k++ {
		if s := k.String(); s == "" {
			t.Errorf("kind %d: empty name", k)
		}
	}
	if Kind(200).String() == "" {
		t.Error("out-of-range kind should still format")
	}
}

func TestInstrString(t *testing.T) {
	i := Instr{Kind: Jump, Target: 0x2000}
	if s := i.String(); s != "jump -> 0x2000" {
		t.Errorf("Instr.String() = %q", s)
	}
	if s := (Instr{Kind: ALU}).String(); s != "alu" {
		t.Errorf("Instr.String() = %q", s)
	}
}
