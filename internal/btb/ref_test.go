package btb

import (
	"math/bits"
	"testing"

	"fdip/internal/isa"
)

// refTargetBuffer is the reference model FuzzTargetBufferReference checks
// TargetBuffer against: the 40-byte entry with separate valid, length and
// kind fields, stored per set — the layout TargetBuffer used before its
// metadata was folded into the tag word.
type refTargetBuffer struct {
	cfg      Config
	sets     [][]refEntry
	setShift uint
	clock    uint64

	Lookups, Hits, Misses, Inserts, Updates, Evictions uint64
}

type refEntry struct {
	valid  bool
	tag    uint64
	stamp  uint64
	length uint8
	cti    isa.Kind
	target uint64
}

func newRefTargetBuffer(cfg Config) *refTargetBuffer {
	t := &refTargetBuffer{cfg: cfg, sets: make([][]refEntry, cfg.Sets), setShift: uint(bits.TrailingZeros(uint(cfg.Sets)))}
	for i := range t.sets {
		t.sets[i] = make([]refEntry, cfg.Ways)
	}
	return t
}

func (t *refTargetBuffer) setAndTag(pc uint64) (int, uint64) {
	word := pc >> 2
	return int(word & uint64(t.cfg.Sets-1)), word >> t.setShift
}

func (t *refTargetBuffer) lookup(pc uint64) (Pred, bool) {
	t.Lookups++
	si, tag := t.setAndTag(pc)
	for i := range t.sets[si] {
		e := &t.sets[si][i]
		if e.valid && e.tag == tag {
			t.Hits++
			t.clock++
			e.stamp = t.clock
			return Pred{NumInstrs: int(e.length), CTI: e.cti, Target: e.target}, true
		}
	}
	t.Misses++
	return Pred{}, false
}

func (t *refTargetBuffer) insert(pc uint64, length int, cti isa.Kind, target uint64) {
	length = max(1, min(length, t.cfg.MaxBlockInstrs))
	si, tag := t.setAndTag(pc)
	set := t.sets[si]
	t.clock++
	for i := range set {
		e := &set[i]
		if e.valid && e.tag == tag {
			e.length, e.cti, e.target, e.stamp = uint8(length), cti, target, t.clock
			t.Updates++
			return
		}
	}
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
		for i := range set {
			if set[i].stamp < set[victim].stamp {
				victim = i
			}
		}
		t.Evictions++
	}
	set[victim] = refEntry{valid: true, tag: tag, stamp: t.clock, length: uint8(length), cti: cti, target: target}
	t.Inserts++
}

func (t *refTargetBuffer) PredictBlock(pc uint64) (Pred, bool) {
	if t.cfg.BlockOriented {
		p, ok := t.lookup(pc)
		if ok && p.NumInstrs == 0 {
			p.NumInstrs = 1
		}
		return p, ok
	}
	for i := 0; i < t.cfg.MaxBlockInstrs; i++ {
		t.Lookups++
		si, tag := t.setAndTag(pc + uint64(i)*isa.InstrBytes)
		for w := range t.sets[si] {
			e := &t.sets[si][w]
			if e.valid && e.tag == tag {
				t.Hits++
				t.clock++
				e.stamp = t.clock
				return Pred{NumInstrs: i + 1, CTI: e.cti, Target: e.target}, true
			}
		}
		t.Misses++
	}
	return Pred{}, false
}

func (t *refTargetBuffer) Peek(pc uint64) bool {
	si, tag := t.setAndTag(pc)
	for _, e := range t.sets[si] {
		if e.valid && e.tag == tag {
			return true
		}
	}
	return false
}

func (t *refTargetBuffer) TrainBlock(start uint64, numInstrs int, cti isa.Kind, target uint64) {
	if t.cfg.BlockOriented {
		t.insert(start, numInstrs, cti, target)
		return
	}
	t.insert(start+uint64(numInstrs-1)*isa.InstrBytes, 1, cti, target)
}

func (t *refTargetBuffer) InvalidateAll() {
	for _, set := range t.sets {
		clear(set)
	}
}

func (t *refTargetBuffer) Reset() { *t = *newRefTargetBuffer(t.cfg) }

// FuzzTargetBufferReference drives TargetBuffer and refTargetBuffer through
// the same operation sequence and requires every return value, counter and
// the LRU clock to agree after every step. data[0:2] picks the geometry: 1
// to 16 sets, 1 to 4 ways, block-oriented or conventional, and a
// MaxBlockInstrs of 1 to 40, clamped to 31 as core.Config.Validate clamps
// it. Every further four bytes are one operation: an opcode byte (low three
// bits the operation, the rest a block length of 0 to 31), a pc byte over a
// 256-instruction window (high pcs when the opcode's top bit is set), a kind
// byte and a target byte. The committed corpus
// (testdata/fuzz/FuzzTargetBufferReference) covers both organisations.
func FuzzTargetBufferReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg := Config{
			Sets:           1 << (data[0] % 5),
			Ways:           1 + int(data[0]>>3&3),
			BlockOriented:  data[0]&0x20 != 0,
			MaxBlockInstrs: min(1+int(data[1]%40), 31),
			AddrBits:       48,
		}
		got, want := New(cfg), newRefTargetBuffer(cfg)
		for step, op := 0, data[2:]; len(op) >= 4; step, op = step+1, op[4:] {
			pc := 0x1000 + uint64(op[1])*isa.InstrBytes
			if op[0]&0x80 != 0 {
				pc |= 1 << 47
			}
			length := int(op[0] >> 3 & 31)
			kind := isa.Kind(int(op[2]) % isa.NumKinds)
			target := uint64(op[3])<<40 | uint64(op[3])*isa.InstrBytes
			var g, w Pred
			var gok, wok bool
			switch op[0] & 7 {
			case 0:
				g, gok = got.lookup(pc)
				w, wok = want.lookup(pc)
			case 1:
				got.insert(pc, length, kind, target)
				want.insert(pc, length, kind, target)
			case 2, 3:
				g, gok = got.PredictBlock(pc)
				w, wok = want.PredictBlock(pc)
			case 4:
				gok, wok = got.Peek(pc), want.Peek(pc)
			case 5:
				got.TrainBlock(pc, max(1, length), kind, target)
				want.TrainBlock(pc, max(1, length), kind, target)
			case 6:
				got.InvalidateAll()
				want.InvalidateAll()
			case 7:
				got.Reset()
				want.Reset()
			}
			if g != w || gok != wok {
				t.Fatalf("%+v step %d: op %d at %#x returned %+v,%v; reference %+v,%v", cfg, step, op[0]&7, pc, g, gok, w, wok)
			}
			gc := [...]uint64{got.Lookups, got.Hits, got.Misses, got.Inserts, got.Updates, got.Evictions, got.clock}
			wc := [...]uint64{want.Lookups, want.Hits, want.Misses, want.Inserts, want.Updates, want.Evictions, want.clock}
			if gc != wc {
				t.Fatalf("%+v step %d: counters %v; reference %v", cfg, step, gc, wc)
			}
		}
	})
}
