package workloads

import (
	"testing"

	"fdip/internal/program"
)

// TestAllGenerateAndValidate generates every workload's image; Generate
// builds it through program.New, which validates it.
func TestAllGenerateAndValidate(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			if _, err := program.Generate(w.Params); err != nil {
				t.Fatalf("Generate: %v", err)
			}
			if w.Description == "" {
				t.Error("empty description")
			}
			if w.Seed == 0 {
				t.Error("zero walker seed")
			}
		})
	}
}

func TestNamesUniqueAndResolvable(t *testing.T) {
	names := Names()
	if len(names) != 8 {
		t.Fatalf("suite has %d workloads, want 8", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate workload %q", n)
		}
		seen[n] = true
		w, ok := ByName(n)
		if !ok || w.Name != n {
			t.Fatalf("ByName(%q) failed", n)
		}
	}
	if _, ok := ByName("doom"); ok {
		t.Error("unknown workload resolved")
	}
}

func TestSuiteHasBothClasses(t *testing.T) {
	large, small := 0, 0
	for _, w := range All() {
		if w.LargeFootprint {
			large++
		} else {
			small++
		}
	}
	if large < 3 || small < 3 {
		t.Errorf("unbalanced suite: %d large, %d small", large, small)
	}
}

func TestFootprintsMatchClass(t *testing.T) {
	for _, w := range All() {
		im, err := program.Generate(w.Params)
		if err != nil {
			t.Fatal(err)
		}
		kb := im.Size() / 1024
		if w.LargeFootprint && kb < 64 {
			t.Errorf("%s: %dKB too small for a large-footprint workload", w.Name, kb)
		}
		if !w.LargeFootprint && kb > 96 {
			t.Errorf("%s: %dKB too big for a cache-resident workload", w.Name, kb)
		}
	}
}

func TestSeedsDistinct(t *testing.T) {
	seen := map[int64]string{}
	for _, w := range All() {
		if prev, ok := seen[w.Params.Seed]; ok {
			t.Errorf("%s and %s share generation seed %d", prev, w.Name, w.Params.Seed)
		}
		seen[w.Params.Seed] = w.Name
	}
}
