package trace

import (
	"bytes"
	"testing"

	"fdip/internal/oracle"
	"fdip/internal/program"
)

func genParams(seed int64) program.Params {
	p := program.DefaultParams()
	p.Seed = seed
	p.NumFuncs = 40
	return p
}

func TestRoundTrip(t *testing.T) {
	params := genParams(11)
	im := program.MustGenerate(params)
	w := oracle.NewWalker(im, 5)

	const n = 100_000
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, params, 5, im)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	recs := make([]oracle.Record, 0, n)
	for i := 0; i < n; i++ {
		rec, _ := w.Next()
		tw.Append(rec)
		recs = append(recs, rec)
	}
	if err := tw.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	tr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if tr.Seed() != 5 {
		t.Errorf("Seed = %d, want 5", tr.Seed())
	}
	if tr.Params().Seed != params.Seed || tr.Params().NumFuncs != params.NumFuncs {
		t.Errorf("Params round-trip mismatch: %+v", tr.Params())
	}
	var got oracle.Record
	for i, want := range recs {
		if !tr.NextInto(&got) {
			t.Fatalf("replay exhausted at %d/%d", i, n)
		}
		if got != want {
			t.Fatalf("record %d: got %+v, want %+v", i, got, want)
		}
	}
}

func TestReplayEndsAtEvents(t *testing.T) {
	params := genParams(12)
	im := program.MustGenerate(params)
	w := oracle.NewWalker(im, 3)
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, params, 3, im)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		rec, _ := w.Next()
		tw.Append(rec)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	tr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var rec oracle.Record
	n := 0
	for {
		if !tr.NextInto(&rec) {
			break
		}
		n++
		if n > 20_000 {
			t.Fatal("replay did not terminate")
		}
	}
	// Replay may run slightly past the recorded instruction count (free
	// deterministic instructions after the last stored CTI event) but must
	// cover at least the recorded span minus one trailing CTI.
	if n < 4999 {
		t.Errorf("replayed only %d of 5000 instructions", n)
	}
	// Exhausted stream keeps returning !ok.
	if tr.NextInto(&rec) || rec != (oracle.Record{}) {
		t.Errorf("exhausted reader returned a record: %+v", rec)
	}
}

func TestCompactness(t *testing.T) {
	params := genParams(13)
	im := program.MustGenerate(params)
	w := oracle.NewWalker(im, 1)
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, params, 1, im)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200_000
	for i := 0; i < n; i++ {
		rec, _ := w.Next()
		tw.Append(rec)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	perInstr := float64(buf.Len()) / n
	if perInstr > 0.6 {
		t.Errorf("trace too fat: %.2f bytes/instr", perInstr)
	}
	if tw.Events() == 0 {
		t.Error("no events recorded")
	}
}

func TestBadMagicRejected(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOTATRACE_______"))); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestTruncatedHeaderRejected(t *testing.T) {
	if _, err := NewReader(bytes.NewReader(magic[:4])); err == nil {
		t.Error("truncated magic accepted")
	}
	if _, err := NewReader(bytes.NewReader(magic[:])); err == nil {
		t.Error("missing header accepted")
	}
}

func TestTruncatedBodyStopsCleanly(t *testing.T) {
	params := genParams(14)
	im := program.MustGenerate(params)
	w := oracle.NewWalker(im, 2)
	var buf bytes.Buffer
	tw, err := NewWriter(&buf, params, 2, im)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		rec, _ := w.Next()
		tw.Append(rec)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	// Chop the tail mid-body.
	data := buf.Bytes()[:buf.Len()-3]
	tr, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewReader on truncated body: %v", err)
	}
	var rec oracle.Record
	n := 0
	for {
		if !tr.NextInto(&rec) {
			break
		}
		n++
		if n > 100_000 {
			t.Fatal("truncated replay did not terminate")
		}
	}
	if n == 0 {
		t.Error("truncated replay produced nothing")
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, 1 << 40, -(1 << 40), -9e18} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("zigzag round trip %d -> %d", v, got)
		}
	}
}
