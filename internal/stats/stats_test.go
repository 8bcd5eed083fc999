package stats

import (
	"math"
	"strings"
	"testing"
)

func TestPctRatioPerKilo(t *testing.T) {
	if got := Pct(1, 4); got != 25 {
		t.Errorf("Pct = %v", got)
	}
	if got := Pct(1, 0); got != 0 {
		t.Errorf("Pct div0 = %v", got)
	}
	if got := PerKilo(5, 1000); got != 5 {
		t.Errorf("PerKilo = %v", got)
	}
	if got := PerKilo(5, 0); got != 0 {
		t.Errorf("PerKilo div0 = %v", got)
	}
}

func TestGmean(t *testing.T) {
	got := Gmean([]float64{1, 4})
	if math.Abs(got-2) > 1e-9 {
		t.Errorf("Gmean(1,4) = %v, want 2", got)
	}
	if Gmean(nil) != 0 {
		t.Error("Gmean(nil) != 0")
	}
	if Gmean([]float64{-1, 0}) != 0 {
		t.Error("Gmean of non-positives != 0")
	}
	// Non-positives ignored, not zeroing.
	got = Gmean([]float64{2, -5})
	if math.Abs(got-2) > 1e-9 {
		t.Errorf("Gmean(2,-5) = %v, want 2", got)
	}
}

func TestGmeanSpeedupPct(t *testing.T) {
	// 10% and 10% gains → 10% gmean gain.
	got := GmeanSpeedupPct([]float64{10, 10})
	if math.Abs(got-10) > 1e-9 {
		t.Errorf("GmeanSpeedupPct = %v, want 10", got)
	}
	// 0% and 21% → sqrt(1.21)-1 = 10%.
	got = GmeanSpeedupPct([]float64{0, 21})
	if math.Abs(got-10) > 1e-6 {
		t.Errorf("GmeanSpeedupPct = %v, want 10", got)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Speedups", "bench", "fdp", "nlp")
	tb.AddRow("gcc", 12.5, 4.25)
	tb.AddRow("vortex", 20.125, 6.0)
	out := tb.String()
	if !strings.Contains(out, "== Speedups ==") {
		t.Errorf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "12.50") || !strings.Contains(out, "4.25") {
		t.Errorf("missing float formatting:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4+0 { // title, header, rule, 2 rows = 5? title+header+rule+2
		if len(lines) != 5 {
			t.Errorf("unexpected line count %d:\n%s", len(lines), out)
		}
	}
	if tb.NumRows() != 2 {
		t.Errorf("NumRows = %d", tb.NumRows())
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("x", "a", "b")
	tb.AddRow(`needs,"quoting`, 1.0)
	var sb strings.Builder
	tb.CSV(&sb)
	out := sb.String()
	if !strings.Contains(out, `"needs,""quoting"`) {
		t.Errorf("CSV escaping wrong:\n%s", out)
	}
	if !strings.HasPrefix(out, "a,b\n") {
		t.Errorf("CSV header wrong:\n%s", out)
	}
}

func TestIsNumericAlignment(t *testing.T) {
	for _, s := range []string{"12", "-3.5", "99%", "0x12", "16K"} {
		if !isNumeric(s) {
			t.Errorf("isNumeric(%q) = false", s)
		}
	}
	for _, s := range []string{"", "gcc", "a1", "1.2.3"} {
		if isNumeric(s) {
			t.Errorf("isNumeric(%q) = true", s)
		}
	}
}
