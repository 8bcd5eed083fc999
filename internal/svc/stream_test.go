package svc

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fdip/internal/engine"
)

var updateWire = flag.Bool("update", false, "rewrite the wire goldens in testdata/wire")

const streamGolden = "testdata/wire/stream_frames.ndjson"

// wireVariants are the engine package's wire golden outcomes (every
// combination of a failed or successful, cached or fresh outcome with zero
// or non-zero CyclesPerSec), read back from its WriteOutcomesJSON golden.
func wireVariants(tb testing.TB) []engine.RunOutcome {
	tb.Helper()
	b, err := os.ReadFile(filepath.Join("..", "engine", "testdata", "wire", "outcomes.json"))
	if err != nil {
		tb.Fatal(err)
	}
	var outs []engine.RunOutcome
	if err := json.Unmarshal(b, &outs); err != nil {
		tb.Fatal(err)
	}
	return outs
}

// streamBody encodes frames as the stream handler does.
func streamBody(tb testing.TB, frames ...StreamFrame) []byte {
	tb.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, f := range frames {
		if err := enc.Encode(f.wire()); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestStreamFrameGolden pins the bytes the stream handler writes for each
// wire variant and the done terminator, and that readStream (Client.Stream's
// reader) decodes them back to the same frames.
func TestStreamFrameGolden(t *testing.T) {
	outs := wireVariants(t)
	var frames []StreamFrame
	for i := range outs {
		frames = append(frames, StreamFrame{Type: "outcome", Seq: i, Outcome: &outs[i]})
	}
	got := streamBody(t, append(frames, StreamFrame{Type: "done", Seq: len(outs)})...)
	if *updateWire {
		if err := os.MkdirAll(filepath.Dir(streamGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(streamGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(streamGolden)
	if err != nil {
		t.Fatalf("missing wire golden (run with -update to record): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s changed:\ngot  %s\nwant %s", streamGolden, got, want)
	}

	var back []StreamFrame
	if err := readStream(bytes.NewReader(want), "s1", func(f StreamFrame) error {
		back = append(back, f)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(frames) {
		t.Fatalf("decoded %d frames, want %d", len(back), len(frames))
	}
	for i := range back {
		if !reflect.DeepEqual(back[i].wire(), frames[i].wire()) {
			t.Fatalf("frame %d decoded as %+v, want %+v", i, back[i].wire(), frames[i].wire())
		}
	}
}

// TestStreamWireMirrorsStreamFrame: streamWire has StreamFrame's fields in
// StreamFrame's order under its tags, so the public type's documented JSON
// is what goes on the wire.
func TestStreamWireMirrorsStreamFrame(t *testing.T) {
	pub, wire := reflect.TypeOf(StreamFrame{}), reflect.TypeOf(streamWire{})
	if pub.NumField() != wire.NumField() {
		t.Fatalf("StreamFrame has %d fields, streamWire %d", pub.NumField(), wire.NumField())
	}
	for i := range pub.NumField() {
		p, w := pub.Field(i), wire.Field(i)
		if p.Name != w.Name || p.Tag.Get("json") != w.Tag.Get("json") {
			t.Errorf("field %d: StreamFrame %s %q, streamWire %s %q", i, p.Name, p.Tag.Get("json"), w.Name, w.Tag.Get("json"))
		}
	}
}

// FuzzClientStream feeds arbitrary bytes to Client.Stream's reader as a
// stream body. readStream must not panic, must deliver exactly the outcome
// frames that precede the body's terminator, in order, and must return nil
// only for a body whose terminator is a done frame (ErrSweepFailed for an
// error frame); a body without a terminator is an error.
//
// The seeds follow the golden stream: its done terminator verbatim, behind
// golden frames cut down to a few fields (a whole golden frame is about
// 1.9 KB, and the fuzzer's minimisation of a new input that large outlasts
// the smoke budget), then the same body without its terminator and torn
// mid-frame, an error terminator, an outcome frame without an outcome and
// an unknown frame type.
func FuzzClientStream(f *testing.F) {
	golden, err := os.ReadFile(streamGolden)
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(golden, []byte("\n"))
	done := lines[len(lines)-2]
	frames := []byte(`{"type":"outcome","seq":0,"outcome":{"job":{"name":"gcc-0","workload":"gcc","seed":7},"index":0,"result":{"Prefetcher":"fdp","Cycles":40000,"IPC":0.5},"cached":false,"elapsed_ns":1234567}}` + "\n" +
		`{"type":"outcome","seq":1,"outcome":{"job":{"name":"gcc-1"},"index":1,"error":"engine: job \"gcc\": \u003cftq\u003e \u0026 café","cached":true,"elapsed_ns":2469134,"cycles_per_sec":2500001.3333333335}}` + "\n")
	f.Add(append(bytes.Clone(frames), done...))
	f.Add(bytes.Clone(frames))
	f.Add(frames[:len(frames)/2])
	f.Add(append(bytes.Clone(frames), `{"type":"error","seq":2,"error":"boom"}`+"\n"...))
	f.Add([]byte(`{"type":"outcome","seq":0}` + "\n" + `{"type":"done","seq":1}` + "\n"))
	f.Add([]byte(`{"type":"assign","seq":0}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var got []StreamFrame
		err := readStream(bytes.NewReader(data), "s1", func(f StreamFrame) error {
			if f.Type != "outcome" || f.Outcome == nil {
				t.Fatalf("delivered a frame that is no outcome frame: %+v", f)
			}
			got = append(got, f)
			return nil
		})

		// The reference: frames decoded one by one up to the first that is
		// not a whole outcome frame.
		dec := json.NewDecoder(bytes.NewReader(data))
		var want []streamWire
		end := ""
		for {
			var w streamWire
			if dec.Decode(&w) != nil {
				break
			}
			if w.Type == "outcome" && w.Outcome != nil {
				want = append(want, w)
				continue
			}
			end = w.Type
			break
		}
		if len(got) != len(want) {
			t.Fatalf("delivered %d outcome frames, the body holds %d before its end", len(got), len(want))
		}
		for i := range got {
			g, _ := json.Marshal(got[i].wire())
			w, _ := json.Marshal(want[i])
			if !bytes.Equal(g, w) {
				t.Fatalf("frame %d delivered as %s, the body holds %s", i, g, w)
			}
		}
		switch end {
		case "done":
			if err != nil {
				t.Fatalf("a body ending in a done frame returned %v", err)
			}
		case "error":
			if !errors.Is(err, ErrSweepFailed) {
				t.Fatalf("a body ending in an error frame returned %v, want ErrSweepFailed", err)
			}
		default:
			if err == nil {
				t.Fatal("a body without a terminator returned nil")
			}
		}

		// A failing fn ends the read with its failure.
		if len(want) > 0 {
			stop := errors.New("consumer stopped")
			if err := readStream(bytes.NewReader(data), "s1", func(StreamFrame) error { return stop }); !errors.Is(err, stop) {
				t.Fatalf("readStream after a failing fn = %v, want the fn error", err)
			}
		}
	})
}

// BenchmarkStreamFrame measures one outcome frame through the stream
// handler's encoder and through readStream (with its done terminator and a
// fresh decoder, as one stream body).
func BenchmarkStreamFrame(b *testing.B) {
	out := wireVariants(b)[0]
	b.Run("encode", func(b *testing.B) {
		enc := json.NewEncoder(io.Discard)
		b.ReportAllocs()
		for b.Loop() {
			if err := enc.Encode(StreamFrame{Type: "outcome", Outcome: &out}.wire()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		raw := streamBody(b, StreamFrame{Type: "outcome", Outcome: &out}, StreamFrame{Type: "done", Seq: 1})
		b.ReportAllocs()
		for b.Loop() {
			if err := readStream(bytes.NewReader(raw), "s1", func(StreamFrame) error { return nil }); err != nil {
				b.Fatal(err)
			}
		}
	})
}
