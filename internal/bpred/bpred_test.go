package bpred

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBumpSaturates(t *testing.T) {
	c := uint8(0)
	c = bump(c, false)
	if c != 0 {
		t.Errorf("bump below 0: %d", c)
	}
	for i := 0; i < 10; i++ {
		c = bump(c, true)
	}
	if c != 3 {
		t.Errorf("bump above 3: %d", c)
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	p := NewBimodal(1024)
	pc := uint64(0x4000)
	for i := 0; i < 10; i++ {
		p.Commit(pc, 0, true)
	}
	if !p.Predict(pc) {
		t.Error("bimodal failed to learn taken bias")
	}
	for i := 0; i < 10; i++ {
		p.Commit(pc, 0, false)
	}
	if p.Predict(pc) {
		t.Error("bimodal failed to learn not-taken bias")
	}
}

func TestGshareLearnsPattern(t *testing.T) {
	// A strict alternating pattern is unpredictable to bimodal but easy
	// for gshare once history distinguishes the two contexts.
	g := NewGshare(4096, 12)
	pc := uint64(0x8000)
	correct := 0
	taken := false
	const n = 2000
	for i := 0; i < n; i++ {
		taken = !taken
		hist := g.History()
		pred := g.Predict(pc)
		if pred == taken {
			correct++
		} else {
			g.Repair(hist, taken)
		}
		g.Commit(pc, hist, taken)
	}
	acc := float64(correct) / n
	if acc < 0.95 {
		t.Errorf("gshare alternating accuracy %.3f, want > 0.95", acc)
	}

	b := NewBimodal(4096)
	correct = 0
	taken = false
	for i := 0; i < n; i++ {
		taken = !taken
		if b.Predict(pc) == taken {
			correct++
		}
		b.Commit(pc, 0, taken)
	}
	bacc := float64(correct) / n
	if bacc > 0.75 {
		t.Errorf("bimodal alternating accuracy %.3f unexpectedly high", bacc)
	}
}

func TestHybridBeatsComponentsOnMix(t *testing.T) {
	// Branch A is strongly biased (bimodal-friendly); branch B follows a
	// history pattern (gshare-friendly). The hybrid should do well on both.
	run := func(p Predictor) float64 {
		rng := rand.New(rand.NewSource(3))
		correct, total := 0, 0
		patTaken := false
		for i := 0; i < 6000; i++ {
			// Branch A
			hist := p.History()
			takenA := rng.Float64() < 0.95
			if p.Predict(0x1000) == takenA {
				correct++
			} else {
				p.Repair(hist, takenA)
			}
			p.Commit(0x1000, hist, takenA)
			// Branch B alternates
			patTaken = !patTaken
			hist = p.History()
			if p.Predict(0x2000) == patTaken {
				correct++
			} else {
				p.Repair(hist, patTaken)
			}
			p.Commit(0x2000, hist, patTaken)
			total += 2
		}
		return float64(correct) / float64(total)
	}
	h := run(NewHybrid(4096, 12))
	if h < 0.93 {
		t.Errorf("hybrid mixed accuracy %.3f, want > 0.93", h)
	}
}

func TestGshareRepairRestoresHistory(t *testing.T) {
	g := NewGshare(1024, 8)
	g.Predict(0x100)
	g.Predict(0x104)
	cp := g.History()
	g.Predict(0x108) // speculative wrong-path shift
	g.Predict(0x10c)
	g.Repair(cp, true)
	want := cp<<1 | 1
	if g.History() != want {
		t.Errorf("after repair history = %#x, want %#x", g.History(), want)
	}
}

func TestStaticPredictor(t *testing.T) {
	st := &Static{Taken: true}
	if !st.Predict(0x1000) {
		t.Error("static-taken predicted not-taken")
	}
	snt := &Static{}
	if snt.Predict(0x1000) {
		t.Error("static-nottaken predicted taken")
	}
}

func TestNewByName(t *testing.T) {
	for _, name := range []string{"bimodal", "gshare", "hybrid", "static-taken", "static-nottaken", ""} {
		p, err := New(name, 1024, 10)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p == nil {
			t.Fatalf("New(%q) = nil", name)
		}
	}
	if _, err := New("tage", 1024, 10); err == nil {
		t.Error("unknown predictor accepted")
	}
}

// TestStorageBits pins each predictor's table storage: 2-bit counters, so
// twice the counter count in bits.
func TestStorageBits(t *testing.T) {
	if got := 2 * len(NewBimodal(1024).table); got != 2048 {
		t.Errorf("bimodal bits = %d", got)
	}
	if got := 2 * len(NewGshare(1024, 10).table); got != 2048 {
		t.Errorf("gshare bits = %d", got)
	}
	h := NewHybrid(1024, 10)
	if got := 2 * (len(h.bim.table) + len(h.gsh.table) + len(h.meta)); got != 3*2048 {
		t.Errorf("hybrid bits = %d", got)
	}
}

// Property: Predict never panics and indexes stay in range for arbitrary
// PCs, including unaligned and huge ones.
func TestQuickPredictAnyPC(t *testing.T) {
	preds := []Predictor{NewBimodal(512), NewGshare(512, 16), NewHybrid(512, 16)}
	f := func(pc uint64, taken bool) bool {
		for _, p := range preds {
			hist := p.History()
			p.Predict(pc)
			p.Commit(pc, hist, taken)
			p.Repair(hist, taken)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLocalLearnsPerBranchPattern(t *testing.T) {
	// Two interleaved branches with different short patterns; local
	// history separates them, global history sees a mess.
	l := NewLocal(4096, 10)
	// Distinct BHT entries: 0x4000 and 0x8000 would both hash to entry 0
	// in a 4096-entry table (their word addresses are multiples of 4096).
	pcA, pcB := uint64(0x4004), uint64(0x8028)
	patA := []bool{true, true, false}        // loop of trip 2
	patB := []bool{true, false, true, false} // alternator
	correct, total := 0, 0
	for i := 0; i < 4000; i++ {
		a := patA[i%len(patA)]
		b := patB[i%len(patB)]
		if i > 500 { // after warmup
			if l.Predict(pcA) == a {
				correct++
			}
			if l.Predict(pcB) == b {
				correct++
			}
			total += 2
		}
		l.Commit(pcA, 0, a)
		l.Commit(pcB, 0, b)
	}
	acc := float64(correct) / float64(total)
	if acc < 0.97 {
		t.Errorf("local pattern accuracy %.3f, want > 0.97", acc)
	}
}

func TestLocalStorageAndName(t *testing.T) {
	l := NewLocal(1024, 10)
	// 10-bit histories plus 2-bit counters.
	if got := len(l.bht)*int(l.histBits) + 2*len(l.pht); got != 1024*10+2*1024 {
		t.Errorf("storage bits = %d", got)
	}
	if l.Name() == "" {
		t.Error("empty name")
	}
	if _, err := New("local", 512, 8); err != nil {
		t.Errorf("New(local): %v", err)
	}
}
