package dist

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fdip/internal/core"
	"fdip/internal/engine"
)

// fdipdBinary returns a worker binary to run: $FDIPD_BIN when set (CI
// builds it once), else a fresh `go build` into the test's temp dir.
func fdipdBinary(t *testing.T) string {
	t.Helper()
	if bin := os.Getenv("FDIPD_BIN"); bin != "" {
		return bin
	}
	if testing.Short() {
		t.Skip("builds the fdipd binary (set FDIPD_BIN to reuse one)")
	}
	bin := filepath.Join(t.TempDir(), "fdipd")
	cmd := exec.Command("go", "build", "-o", bin, "fdip/cmd/fdipd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build fdipd: %v\n%s", err, out)
	}
	return bin
}

// workerProcess is one live `fdipd -listen` child reached over HTTP.
type workerProcess struct {
	cmd *exec.Cmd
	url string
}

// startWorker runs `fdipd -listen 127.0.0.1:0` and reads the kernel-chosen
// port from its "worker listening on" stderr line. The process is killed
// and reaped when the test ends.
func startWorker(t *testing.T, bin string, workers int) *workerProcess {
	t.Helper()
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-workers", fmt.Sprint(workers))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", bin, err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "worker listening on "); ok {
				addr <- a
				break
			}
		}
		io.Copy(io.Discard, stderr) // keep the pipe drained until exit
	}()
	select {
	case a := <-addr:
		return &workerProcess{cmd: cmd, url: "http://" + a}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s -listen never reported its address", bin)
		return nil
	}
}

// processPlan is a cheap 6-point plan for subprocess tests (no golden point:
// the process boundary, not simulation depth, is what these tests exercise).
func processPlan() *engine.Plan {
	mk := func(kind core.PrefetcherKind) core.Config {
		c := core.DefaultConfig()
		c.MaxInstrs = 15_000
		c.Prefetch.Kind = kind
		return c
	}
	return engine.NewPlan(core.DefaultConfig()).
		OverNames("gcc", "deltablue").
		Axes(engine.Configs(
			engine.Named("base", mk(core.PrefetchNone)),
			engine.Named("nextline", mk(core.PrefetchNextLine)),
			engine.Named("fdp", mk(core.PrefetchFDP)),
		))
}

// requireMatchesInProcess runs p on the in-process engine and checks outs
// against it point by point.
func requireMatchesInProcess(t *testing.T, p *engine.Plan, outs []engine.RunOutcome) {
	t.Helper()
	ref := make([]engine.RunOutcome, p.Points())
	for out, err := range engine.New(engine.WithWorkers(4)).Stream(context.Background(), p) {
		if err != nil || out.Err != nil {
			t.Fatalf("reference: %v / %v", err, out.Err)
		}
		ref[out.Index] = out
	}
	for i := range ref {
		if outs[i].Err != nil {
			t.Fatalf("point %d (%s): %v", i, outs[i].Job.Name, outs[i].Err)
		}
		if a, b := resultChecksum(outs[i].Result), resultChecksum(ref[i].Result); a != b {
			t.Errorf("point %d (%s): subprocess checksum %#x != in-process %#x", i, outs[i].Job.Name, a, b)
		}
		if outs[i].Job.Name != ref[i].Job.Name {
			t.Errorf("point %d named %q, want %q", i, outs[i].Job.Name, ref[i].Job.Name)
		}
	}
}

// TestExecShardedMatchesSingleProcess crosses the real process boundary:
// the plan sharded 2-way over two exec'd `fdipd -listen` workers, reached
// over HTTP through a Registry, must reproduce the in-process engine
// bit-identically.
func TestExecShardedMatchesSingleProcess(t *testing.T) {
	bin := fdipdBinary(t)
	reg := NewRegistry(time.Hour)
	for i := 0; i < 2; i++ {
		reg.Register(fmt.Sprintf("w%d", i), startWorker(t, bin, 2).url, 0)
	}
	p := processPlan()
	outs, err := collect(context.Background(), New(Options{Dialer: reg, Shards: 2, ChunkPoints: 2}), p)
	if err != nil {
		t.Fatalf("sweep over worker processes: %v", err)
	}
	requireMatchesInProcess(t, p, outs)
}

// TestExecWorkerKillMidRangeRecovers SIGKILLs a live worker process once its
// first assignment has started streaming; the coordinator must re-run the
// range on a second process and finish bit-identically.
func TestExecWorkerKillMidRangeRecovers(t *testing.T) {
	bin := fdipdBinary(t)
	// One simulation at a time, so the first outcome of a range arrives
	// while the rest of the range is still running.
	victim, survivor := startWorker(t, bin, 1), startWorker(t, bin, 1)
	kd := &killFirstDialer{victim: victim, survivor: HTTP{URL: survivor.url}}
	p := processPlan()
	outs, err := collect(context.Background(), New(Options{Dialer: kd, Shards: 1, ChunkPoints: 2}), p)
	if err != nil {
		t.Fatalf("sweep across a killed worker process: %v", err)
	}
	if !kd.fired() {
		t.Fatal("kill injection never fired; test covered nothing")
	}
	requireMatchesInProcess(t, p, outs)
}

// killFirstDialer dials the victim process first and the survivor after
// that. The victim's session SIGKILLs its process on the first outcome it
// receives — the hardest death the retry path has to absorb.
type killFirstDialer struct {
	victim   *workerProcess
	survivor HTTP

	mu     sync.Mutex
	dialed bool
	killed bool
}

func (d *killFirstDialer) fired() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.killed
}

func (d *killFirstDialer) Dial(ctx context.Context) (Session, error) {
	d.mu.Lock()
	first := !d.dialed
	d.dialed = true
	d.mu.Unlock()
	if !first {
		return d.survivor.Dial(ctx)
	}
	s, err := (HTTP{URL: d.victim.url}).Dial(ctx)
	if err != nil {
		return nil, err
	}
	return &killFirstSession{Session: s, d: d}, nil
}

type killFirstSession struct {
	Session
	d *killFirstDialer
}

func (ks *killFirstSession) Run(ctx context.Context, a Assignment, emit func(engine.RunOutcome) error) error {
	return ks.Session.Run(ctx, a, func(out engine.RunOutcome) error {
		ks.d.mu.Lock()
		defer ks.d.mu.Unlock()
		if !ks.d.killed {
			ks.d.killed = true
			ks.d.victim.cmd.Process.Kill()
			ks.d.victim.cmd.Process.Wait()
		}
		return emit(out)
	})
}
