package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"fdip/internal/core"
	"fdip/internal/prefetch"
	"fdip/internal/program"
)

var updateWire = flag.Bool("update", false, "rewrite the wire goldens in testdata/wire")

// wireVariants are the outcomes the wire goldens pin: outcome i fails if bit
// 0 of i is set, is cached if bit 1 is, and has a non-zero CyclesPerSec if
// bit 2 is, so the eight cover every combination of the fields whose
// encoding is conditional. Outcome 6 runs a generated program, so a Params
// job is pinned too. The error text carries HTML and non-ASCII characters,
// whose escaping is part of the bytes.
func wireVariants() []RunOutcome {
	params := program.DefaultParams()
	outs := make([]RunOutcome, 8)
	for i := range outs {
		cfg := core.DefaultConfig()
		cfg.MaxInstrs = 20_000
		cfg.Prefetch.Kind = core.PrefetchFDP
		cfg.Prefetch.FDP.CPF = prefetch.CPFConservative
		o := RunOutcome{
			Job:     Job{Name: fmt.Sprintf("gcc-%d", i), Workload: "gcc", Config: cfg, Seed: int64(7 + i)},
			Index:   i,
			Cached:  i&2 != 0,
			Elapsed: time.Duration(1_234_567 * (i + 1)),
		}
		if i&1 != 0 {
			o.Err = errors.New(`engine: job "gcc": <ftq> & café`)
		} else {
			o.Result = core.Result{
				Prefetcher: "fdp", Cycles: int64(40_000 + i), Committed: 20_000, IPC: 20_000 / float64(40_000+i),
				DemandAccesses: 9_000, L1Hits: 8_000, PFBHits: 600, FullMisses: 400, LateMerges: 50,
				MissPKI: 50, FullMissPKI: 20, CoveragePct: 60, PartialPct: 65.25,
				PrefetchIssued: 1_100, UsefulPct: 59.09090909090909,
				PortStats:  prefetch.PortStats{Issued: 1_100, DroppedPresent: 3, DroppedInflight: 2, DeferredBusBusy: 1},
				BusUtilPct: 12.5, DemandBusWait: 77, CondBranches: 2_500, CTIs: 3_200,
				MispredictsByKind: [5]uint64{40, 1, 2, 3, 4}, TotalMispredicts: 50, MispredictPKI: 2.5,
				CondAccuracyPct: 98.4, FTBHitRatePct: 97.125, FTBLookups: 4_000, RASUnderflows: 1,
				BPUBlocks: 4_100, FTBMissBlocks: 90, FetchStallCycles: 10_000, FetchIdleCycles: 300,
				BackendFullCycles: 200, BPUFTQFullStalls: 100, WrongPathFetched: 700, Squashed: 650,
				FTQOccMean: 6.333333333333333, ROBOccMean: 31.5, FTQOccP90: 14, FTBStorageBytes: 24_576, PFBEntries: 32,
			}
		}
		if i&4 != 0 {
			o.CyclesPerSec = 2.5e6 + float64(i)/3
		}
		outs[i] = o
	}
	outs[6].Job = Job{Name: "synthetic", Config: outs[6].Job.Config, Params: &params, Seed: 1}
	return outs
}

// checkGolden compares got with testdata/wire/name, rewriting the file
// instead under -update. The goldens were recorded from the codecs that ran
// each outcome through RunOutcome's Marshaler methods, so they also pin that
// WireOutcome fields encode the same bytes; rewrite them only for an
// intended format change.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "wire", name)
	if *updateWire {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing wire golden (run with -update to record): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s changed:\ngot  %s\nwant %s", path, got, want)
	}
}

// TestWriteOutcomesJSONGolden pins WriteOutcomesJSON's bytes for every
// wire variant.
func TestWriteOutcomesJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteOutcomesJSON(&buf, wireVariants()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "outcomes.json", buf.Bytes())
}

// TestWireRoundTrip: Wire and Outcome are inverse conversions (an error
// compares by its message, which is all the wire keeps), the wire form
// survives encoding/json unchanged, and RunOutcome's Marshaler methods write
// and read exactly the wire form, for the golden variants and for random
// outcomes.
func TestWireRoundTrip(t *testing.T) {
	msg := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	check := func(o RunOutcome) {
		t.Helper()
		w := o.Wire()
		b, err := json.Marshal(&w)
		if err != nil {
			t.Fatal(err)
		}
		if mb, err := json.Marshal(o); err != nil || !bytes.Equal(mb, b) {
			t.Fatalf("outcome %d: MarshalJSON wrote %s (%v), its wire form %s", o.Index, mb, err, b)
		}
		back := w.Outcome()
		if msg(back.Err) != msg(o.Err) {
			t.Fatalf("outcome %d: error %q came back as %q", o.Index, msg(o.Err), msg(back.Err))
		}
		back.Err, o.Err = nil, nil
		if !reflect.DeepEqual(back, o) {
			t.Fatalf("outcome %d did not survive Wire().Outcome():\n got %+v\nwant %+v", o.Index, back, o)
		}
		var dec WireOutcome
		if err := json.Unmarshal(b, &dec); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dec, w) {
			t.Fatalf("outcome %d's wire form did not survive JSON:\n got %+v\nwant %+v", o.Index, dec, w)
		}
		var ro RunOutcome
		if err := json.Unmarshal(b, &ro); err != nil || !reflect.DeepEqual(ro.Wire(), w) {
			t.Fatalf("outcome %d: UnmarshalJSON decoded %+v (%v), want %+v", o.Index, ro.Wire(), err, w)
		}
	}
	for _, o := range wireVariants() {
		check(o)
	}
	rng := rand.New(rand.NewSource(1))
	for range 200 {
		v, ok := quick.Value(reflect.TypeOf(WireOutcome{}), rng)
		if !ok {
			t.Fatal("quick cannot generate a WireOutcome")
		}
		w := v.Interface().(WireOutcome)
		o := w.Outcome()
		if !reflect.DeepEqual(o.Wire(), w) {
			t.Fatalf("wire form did not survive Outcome().Wire():\n got %+v\nwant %+v", o.Wire(), w)
		}
		check(o)
	}
}
