package program_test

import (
	"runtime"
	"testing"

	"fdip/internal/isa"
	"fdip/internal/program"
	"fdip/internal/workloads"
)

// TestStaticTables checks the image-owned tables against their definitions
// on every workload: the scheduler table is SchedPack per instruction; the
// behaviour ordinal covers exactly the modelled words (conditionals and
// indirect jumps and calls) and round-trips through BehaviorAt; and the
// walker slots number the stateful records densely in address order.
func TestStaticTables(t *testing.T) {
	for _, wl := range workloads.All() {
		t.Run(wl.Name, func(t *testing.T) {
			im := program.MustGenerate(wl.Params)
			if len(im.Behav) != cap(im.Behav) {
				t.Errorf("behaviour table has %d records in %d capacity; want it sized exactly", len(im.Behav), cap(im.Behav))
			}
			sched := im.SchedWords()
			ord, slot, n := im.BehaviorIndex()
			if len(sched) != len(im.Code) || len(ord) != len(im.Code) || len(slot) != len(im.Behav) {
				t.Fatalf("tables have %d/%d/%d entries; want %d/%d/%d",
					len(sched), len(ord), len(slot), len(im.Code), len(im.Code), len(im.Behav))
			}
			records, stateful := 0, 0
			for i := range im.Code {
				ins := &im.Code[i]
				pc := im.Base + uint64(i)*isa.InstrBytes
				if sched[i] != ins.SchedPack() {
					t.Fatalf("sched[%d] = %#x; want %#x", i, sched[i], ins.SchedPack())
				}
				modelled := ins.Kind == isa.CondBranch || ins.Kind == isa.IndirectJump || ins.Kind == isa.IndirectCall
				if !modelled {
					if ord[i] != program.NoBehavior {
						t.Fatalf("unmodelled %v at word %d has ordinal %d", ins.Kind, i, ord[i])
					}
					if b := im.BehaviorAt(pc); b.Model != program.ModelNone {
						t.Fatalf("BehaviorAt(%#x) on a %v = %v; want none", pc, ins.Kind, b.Model)
					}
					continue
				}
				if ord[i] != uint32(records) {
					t.Fatalf("ord[%d] = %d; want %d", i, ord[i], records)
				}
				rec := &im.Behav[records]
				records++
				if rec.Word != i {
					t.Fatalf("record %d names word %d; want %d", ord[i], rec.Word, i)
				}
				got := im.BehaviorAt(pc)
				if got.Model != rec.Model || len(got.Targets) != len(rec.Targets) || got.TakenProb != rec.TakenProb {
					t.Fatalf("BehaviorAt(%#x) = %+v; want record %+v", pc, got, rec.Behavior)
				}
				if rec.Model != program.ModelBiased {
					if slot[ord[i]] != uint32(stateful) {
						t.Fatalf("slot[%d] = %d; want %d", ord[i], slot[ord[i]], stateful)
					}
					stateful++
				}
			}
			if records != len(im.Behav) || n != stateful {
				t.Fatalf("ordinal covers %d of %d records, %d of %d stateful", records, len(im.Behav), n, stateful)
			}
			// A few percent of instructions carry walker state; the compact
			// walker's size advantage rests on that.
			if n == 0 || n > len(im.Code)/10 {
				t.Errorf("%d of %d instructions carry walker state; want a small nonzero share", n, len(im.Code))
			}
			if again := im.SchedWords(); &again[0] != &sched[0] {
				t.Error("SchedWords rebuilt its table; want one derivation per image")
			}
		})
	}
}

// TestImageFootprint bounds what a generated image keeps live per static
// instruction, with its static tables derived: the code, the sparse
// behaviour table with its target sets, and the scheduler and ordinal
// tables. The bound fails any layout that keeps a Behavior (88 B) per
// instruction.
func TestImageFootprint(t *testing.T) {
	const maxBytesPerInstr = 40
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
		im.SchedWords()
		after := live()
		per := float64(after-before) / float64(len(im.Code))
		t.Logf("%s: %d instructions, %d records, %.1f B per instruction", name, len(im.Code), len(im.Behav), per)
		if per > maxBytesPerInstr {
			t.Errorf("%s keeps %.1f B per static instruction live; want at most %d", name, per, maxBytesPerInstr)
		}
		runtime.KeepAlive(im)
	}
}
