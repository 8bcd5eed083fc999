package program_test

import (
	"runtime"
	"testing"

	"fdip/internal/isa"
	"fdip/internal/program"
	"fdip/internal/workloads"
)

// TestStaticTables checks the image's behaviour index against its
// definition on every workload: exactly the modelled words (conditionals
// and indirect jumps and calls) resolve, through the rank index, to their
// own record, both in place (Record) and by value (BehaviorAt); and the
// walker slots number the stateful records densely in address order.
func TestStaticTables(t *testing.T) {
	for _, wl := range workloads.All() {
		t.Run(wl.Name, func(t *testing.T) {
			im := program.MustGenerate(wl.Params)
			behav := im.Branches()
			if len(behav) != cap(behav) {
				t.Errorf("behaviour table has %d records in %d capacity; want it sized exactly", len(behav), cap(behav))
			}
			records, stateful := 0, 0
			for pc := im.Base; pc < im.End(); pc += isa.InstrBytes {
				ins, _ := im.InstrAt(pc)
				modelled := ins.Kind == isa.CondBranch || ins.Kind == isa.IndirectJump || ins.Kind == isa.IndirectCall
				if !modelled {
					if b := im.BehaviorAt(pc); b.Model != program.ModelNone {
						t.Fatalf("BehaviorAt(%#x) on a %v = %v; want none", pc, ins.Kind, b.Model)
					}
					continue
				}
				rec, slot := im.Record(pc)
				if rec != &behav[records] {
					t.Fatalf("Record(%#x) is not record %d", pc, records)
				}
				records++
				if w := isa.WordIndex(pc, im.Base); int(rec.Word) != w {
					t.Fatalf("record for word %d names word %d", w, rec.Word)
				}
				got := im.BehaviorAt(pc)
				if got.Model != rec.Model || len(got.Targets) != len(rec.Targets) || got.TakenProb != rec.TakenProb {
					t.Fatalf("BehaviorAt(%#x) = %+v; want record %+v", pc, got, rec.Behavior)
				}
				if rec.Model != program.ModelBiased {
					if slot != uint32(stateful) {
						t.Fatalf("slot of word %d = %d; want %d", rec.Word, slot, stateful)
					}
					stateful++
				}
			}
			n := im.StatefulBranches()
			if records != len(behav) || n != stateful {
				t.Fatalf("index reaches %d of %d records, %d of %d stateful", records, len(behav), stateful, n)
			}
			// A few percent of instructions carry walker state; the compact
			// walker's size advantage rests on that.
			if words := int(im.Size() / isa.InstrBytes); n == 0 || n > words/10 {
				t.Errorf("%d of %d instructions carry walker state; want a small nonzero share", n, words)
			}
		})
	}
}

// TestImageFootprint bounds what a generated image keeps live per static
// instruction: the 8-byte code words, the sparse behaviour table with its
// target sets, the rank index and walker slots, and the function
// directory. At 16 B it fails any layout that keeps a 16-byte isa.Instr, or
// a 4-byte table, per instruction.
func TestImageFootprint(t *testing.T) {
	const maxBytesPerInstr = 16
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for _, name := range []string{"gcc", "vortex"} {
		wl, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("no workload %q", name)
		}
		before := live()
		im := program.MustGenerate(wl.Params)
		after := live()
		words := im.Size() / isa.InstrBytes
		per := float64(after-before) / float64(words)
		t.Logf("%s: %d instructions, %d records, %.1f B per instruction", name, words, len(im.Branches()), per)
		if per > maxBytesPerInstr {
			t.Errorf("%s keeps %.1f B per static instruction live; want at most %d", name, per, maxBytesPerInstr)
		}
		runtime.KeepAlive(im)
	}
}
