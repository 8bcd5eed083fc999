package backend_test

import (
	"testing"

	"fdip/internal/backend"
	"fdip/internal/core"
)

// TestDefaultsApplied: the backend applies no defaults of its own; the
// machine's Validate fills them in. DecodeLatency 0 is a legal explicit
// value, so "use the default" is spelled -1 for that field and 0 for the
// others.
func TestDefaultsApplied(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Backend = backend.Config{DecodeLatency: -1}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Backend != backend.DefaultConfig() {
		t.Errorf("defaults not applied: %+v", cfg.Backend)
	}

	cfg2 := core.DefaultConfig()
	cfg2.Backend = backend.Config{}
	if err := cfg2.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg2.Backend.DecodeLatency != 0 {
		t.Errorf("explicit zero DecodeLatency overridden: %+v", cfg2.Backend)
	}
	want := backend.DefaultConfig()
	want.DecodeLatency = 0
	if cfg2.Backend != want {
		t.Errorf("zero backend validated to %+v, want %+v", cfg2.Backend, want)
	}

	// New takes the validated config as given: a fresh backend accepts
	// a full decode pipe.
	if b := backend.New(cfg2.Backend); b.Accept() != want.PipeCap {
		t.Errorf("fresh backend accepts %d, want %d", b.Accept(), want.PipeCap)
	}
}
