package memsys_test

import (
	"testing"

	"fdip/internal/core"
	"fdip/internal/memsys"
)

// TestDefaultsApplied: the hierarchy applies no defaults of its own; the
// machine's Validate turns a zero Mem into DefaultConfig, and New takes
// the result as given.
func TestDefaultsApplied(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Mem = memsys.Config{}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	d := memsys.DefaultConfig()
	if cfg.Mem != d {
		t.Errorf("defaults not applied: %+v", cfg.Mem)
	}

	// A cold miss on the validated hierarchy costs the default L2 lookup,
	// memory latency and bus transfer.
	h := memsys.New(cfg.Mem)
	tr := h.Request(0x1000, false, 100)
	if want := int64(100 + d.L2HitLatency + d.MemLatency + d.BusCyclesPerLine); tr.Done != want {
		t.Errorf("cold miss Done = %d, want %d", tr.Done, want)
	}
}
