package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/trap-repro/trap/internal/faultinject"
	"github.com/trap-repro/trap/internal/joblog"
)

// The standby drills run trapd failover between real processes: the
// primary is a child process (the test binary re-run as
// TestStandbyPrimaryChild) serving HTTP on loopback with a job log and
// spool; the standby is the test process itself, blocked in NewServer
// on the job log's lock.

func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// replayRecords reopens a (closed) joblog directory and returns every
// retained record, for post-mortem invariant checks.
func replayRecords(t *testing.T, dir string) []joblog.Record {
	t.Helper()
	var recs []joblog.Record
	l, err := joblog.Open(dir, joblog.Options{Replay: func(r joblog.Record) error {
		recs = append(recs, r)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	return recs
}

// terminalRecords counts the job's state records that carry a terminal
// status: exactly one means the job finished exactly once.
func terminalRecords(t *testing.T, dir, id string) int {
	t.Helper()
	n := 0
	for _, r := range replayRecords(t, dir) {
		var j Job
		if r.JobID == id && r.Type == recState && json.Unmarshal(r.Data, &j) == nil && j.Status.terminal() {
			n++
		}
	}
	return n
}

// standbyChildEnv carries the drill's base directory to the primary.
const standbyChildEnv = "TRAPD_STANDBY_DIR"

// standbyConfig is the configuration both the primary and the standby
// run with: the same suites, job log and spool. Checkpoints every other
// epoch leave a window (after epoch 3's progress record, before epoch
// 4's checkpoint) in which a killed primary makes its successor re-run
// an epoch the log already reports.
func standbyConfig(base string) Config {
	cfg := crashParams()
	cfg.JobLogDir = filepath.Join(base, "joblog")
	cfg.SpoolDir = filepath.Join(base, "spool")
	cfg.CheckpointEvery = 2
	return cfg
}

// TestStandbyPrimaryChild is the primary's process body: it serves the
// job API on a loopback port, published in the file "addr", until it
// is killed, stopped or sent SIGTERM (graceful shutdown).
func TestStandbyPrimaryChild(t *testing.T) {
	base := os.Getenv(standbyChildEnv)
	if base == "" {
		t.Skip("standby-drill primary, driven by the TestStandby drills")
	}
	cfg := standbyConfig(base)
	// Stretch every epoch so the drills can act mid-training. Delays do
	// not change any results.
	cfg.Injector = faultinject.NewSeeded(1, faultinject.Rule{
		Point: faultinject.PointRLEpoch, Action: faultinject.ActDelay,
		Every: 1, Delay: 500 * time.Millisecond,
	})
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(base, "addr.tmp")
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, filepath.Join(base, "addr")); err != nil {
		t.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	if err := s.serve(ctx, ln); err != nil {
		t.Fatal(err)
	}
}

// primaryProc is a running primary child.
type primaryProc struct {
	cmd  *exec.Cmd
	out  *bytes.Buffer
	url  string
	h    http.Handler // proxies to the child, for the handler-based helpers
	done chan error   // receives cmd.Wait's result
}

// startPrimary starts the primary child and waits until it serves.
func startPrimary(t *testing.T, base string) *primaryProc {
	t.Helper()
	p := &primaryProc{out: &bytes.Buffer{}, done: make(chan error, 1)}
	p.cmd = exec.Command(os.Args[0], "-test.run=^TestStandbyPrimaryChild$")
	p.cmd.Env = append(os.Environ(), standbyChildEnv+"="+base)
	p.cmd.Stdout, p.cmd.Stderr = p.out, p.out
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { p.done <- p.cmd.Wait() }()
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		<-p.done
		if t.Failed() {
			t.Logf("primary output:\n%s", p.out.String())
		}
		p.done <- nil // later cleanups and waits see a dead child
	})
	var addr []byte
	waitUntil(t, 2*time.Minute, "primary to serve", func() bool {
		addr, _ = os.ReadFile(filepath.Join(base, "addr"))
		return len(addr) > 0
	})
	p.url = "http://" + string(addr)
	u, err := url.Parse(p.url)
	if err != nil {
		t.Fatal(err)
	}
	p.h = httputil.NewSingleHostReverseProxy(u)
	return p
}

// wait waits for the primary to exit and returns its exit error.
func (p *primaryProc) wait(t *testing.T, timeout time.Duration) error {
	t.Helper()
	select {
	case err := <-p.done:
		p.done <- err
		return err
	case <-time.After(timeout):
		t.Fatalf("primary did not exit within %v", timeout)
		return nil
	}
}

// standbyProc is a NewServer call blocked on the primary's job log.
type standbyProc struct {
	waiting chan struct{} // closed when the standby reports waiting
	done    chan struct{} // closed when NewServer returns
	srv     *Server
	err     error
	at      time.Time // when NewServer returned
}

// startStandby builds a standby server on the primary's directories in
// the background and waits until it is blocked on the job log's lock.
func startStandby(t *testing.T, base string) *standbyProc {
	t.Helper()
	sb := &standbyProc{waiting: make(chan struct{}), done: make(chan struct{})}
	var once sync.Once
	cfg := standbyConfig(base)
	cfg.Logf = func(format string, args ...any) {
		if strings.Contains(fmt.Sprintf(format, args...), "waiting as standby") {
			once.Do(func() { close(sb.waiting) })
		}
	}
	go func() {
		defer close(sb.done)
		sb.srv, sb.err = NewServer(cfg)
		sb.at = time.Now()
	}()
	t.Cleanup(func() {
		<-sb.done
		if sb.srv != nil {
			sb.srv.Close()
		}
	})
	select {
	case <-sb.waiting:
	case <-sb.done:
		t.Fatalf("standby did not wait for the primary's lock (err=%v)", sb.err)
	case <-time.After(2 * time.Minute):
		t.Fatal("standby never reached the job log lock")
	}
	return sb
}

// takeOver waits for the standby's NewServer to return.
func (sb *standbyProc) takeOver(t *testing.T, timeout time.Duration) *Server {
	t.Helper()
	select {
	case <-sb.done:
	case <-time.After(timeout):
		t.Fatalf("standby did not take over within %v", timeout)
	}
	if sb.err != nil {
		t.Fatal(sb.err)
	}
	return sb.srv
}

// firstCheckpoint waits until the primary has spooled a checkpoint.
func firstCheckpoint(t *testing.T, base string) {
	t.Helper()
	waitUntil(t, 2*time.Minute, "first checkpoint", func() bool {
		m, _ := filepath.Glob(filepath.Join(base, "spool", "*.ckpt"))
		return len(m) > 0
	})
}

// takeover is the state a killed-primary drill leaves behind.
type takeover struct {
	base string
	job  Job
	head []sseFrame // the events the client saw on the primary
	srv  *Server    // the standby, now serving
}

// killPrimaryMidJob SIGKILLs the primary after its first checkpoint
// (epoch 2), as soon as a client streaming the job's events from it has
// seen epoch 3, and waits for the standby blocked in NewServer to take
// over the log.
func killPrimaryMidJob(t *testing.T) takeover {
	t.Helper()
	base := t.TempDir()
	primary := startPrimary(t, base)
	standby := startStandby(t, base)

	j := submitJob(t, primary.h, "Drop", "GRU")
	resp, err := http.Get(primary.url + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	rawc := make(chan []byte, 1)
	sawEpoch3 := make(chan struct{})
	go func() {
		var raw []byte
		buf := make([]byte, 4096)
		notify := sawEpoch3
		for {
			n, err := resp.Body.Read(buf) // fails when the primary dies
			raw = append(raw, buf[:n]...)
			if notify != nil && bytes.Contains(raw, []byte(`"epoch":3`)) {
				close(notify)
				notify = nil
			}
			if err != nil {
				break
			}
		}
		resp.Body.Close()
		rawc <- raw
	}()

	select {
	case <-sawEpoch3:
	case <-time.After(2 * time.Minute):
		t.Fatal("the primary never reported epoch 3")
	}
	killed := time.Now()
	if err := primary.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	primary.wait(t, time.Minute)
	head := readSSE(t, bytes.NewReader(<-rawc), 1<<20)
	if len(head) == 0 {
		t.Fatal("client saw no events from the primary")
	}

	s := standby.takeOver(t, time.Minute)
	t.Logf("standby took over %v after the primary was killed (%d events seen on the primary)",
		standby.at.Sub(killed).Round(time.Millisecond), len(head))
	return takeover{base: base, job: j, head: head, srv: s}
}

// TestStandbyTakeover kills the primary mid-training (killPrimaryMidJob).
// The standby must replay the log, resume the job from the epoch-2
// checkpoint and finish it exactly once, bit-identical to an
// uninterrupted run; the log holds epoch 3's progress twice, once from
// each process.
func TestStandbyTakeover(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a primary process and builds three suites")
	}
	tk := killPrimaryMidJob(t)
	s, j := tk.srv, tk.job
	h := s.Handler()
	final := pollTerminal(t, h, j.ID, 3*time.Minute)
	if final.Status != JobDone {
		t.Fatalf("job after takeover: %s (%s)", final.Status, final.Error)
	}
	if !final.Restored || !final.Resumed {
		t.Errorf("job after takeover: restored=%v resumed=%v, want both", final.Restored, final.Resumed)
	}
	metricAtLeast(t, h, "trapd_checkpoints_resumed_total", 1)

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	logDir := standbyConfig(tk.base).JobLogDir
	if n := terminalRecords(t, logDir, j.ID); n != 1 {
		t.Errorf("terminal records for %s in the log = %d, want exactly 1", j.ID, n)
	}
	reruns := 0
	for _, r := range replayRecords(t, logDir) {
		var pd progressData
		if r.JobID == j.ID && r.Type == recProgress && json.Unmarshal(r.Data, &pd) == nil && pd.Epoch == 3 {
			reruns++
		}
	}
	if reruns != 2 {
		t.Errorf("epoch 3 progress records = %d, want 2 (primary and standby)", reruns)
	}

	// Reference: the same assessment, uninterrupted, in a fresh server.
	ref, err := NewServer(crashParams())
	if err != nil {
		t.Fatal(err)
	}
	rh := ref.Handler()
	want := pollTerminal(t, rh, submitJob(t, rh, "Drop", "GRU").ID, 3*time.Minute)
	if want.Status != JobDone {
		t.Fatalf("reference job ended %s (%s)", want.Status, want.Error)
	}
	if final.Result.MeanIUDR != want.Result.MeanIUDR || final.Result.Pairs != want.Result.Pairs ||
		final.Result.Workloads != want.Result.Workloads {
		t.Errorf("taken-over result differs from an uninterrupted run:\n  got:  %+v\n  want: %+v",
			final.Result, want.Result)
	}
}

// TestStandbySSEResumeAcrossTakeover kills the primary mid-training
// (killPrimaryMidJob) and resumes the client's event stream on the
// standby, while it is still re-running the job, with the last event ID
// the client saw on the primary. The joined stream must be gap-free,
// report every epoch — the re-run epoch 3 included — and every cell
// once, and end on the one result.
func TestStandbySSEResumeAcrossTakeover(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a primary process and builds two suites")
	}
	tk := killPrimaryMidJob(t)
	ts := httptest.NewServer(tk.srv.Handler())
	defer ts.Close()
	req, err := http.NewRequest("GET", ts.URL+"/v1/jobs/"+tk.job.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", strconv.FormatInt(tk.head[len(tk.head)-1].ID, 10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	tail := readSSE(t, resp.Body, 1<<20) // ends when the job does
	resp.Body.Close()
	cfg := standbyConfig(tk.base)
	checkJobStream(t, append(tk.head, tail...), cfg.Params.RLEpochs, cfg.Params.TestWorkloads)
	if final, _ := tk.srv.jobs.get(tk.job.ID); final.Status != JobDone {
		t.Fatalf("job after takeover: %s (%s)", final.Status, final.Error)
	}
}

// checkJobStream asserts a finished job's complete event stream: IDs
// 1, 2, 3, ... without gaps, every epoch and every measurement cell
// exactly once, one terminal state, and one result, which ends it.
func checkJobStream(t *testing.T, frames []sseFrame, epochs, cells int) {
	t.Helper()
	epochSeen, cellSeen := map[int]int{}, map[int]int{}
	terminal, results := 0, 0
	for i, f := range frames {
		if f.ID != int64(i+1) {
			t.Fatalf("event %d has ID %d: the stream has a gap or repeat", i+1, f.ID)
		}
		switch f.Event {
		case evEpoch:
			epochSeen[f.Data.Epoch]++
		case evCell:
			if f.Data.Workload != nil {
				cellSeen[*f.Data.Workload]++
			}
		case evState:
			if f.Data.Status.terminal() {
				terminal++
			}
		case evResult:
			results++
		}
	}
	for ep := 1; ep <= epochs; ep++ {
		if epochSeen[ep] != 1 {
			t.Errorf("epoch %d reported %d times, want once", ep, epochSeen[ep])
		}
	}
	for w := 0; w < cells; w++ {
		if cellSeen[w] != 1 {
			t.Errorf("cell %d reported %d times, want once", w, cellSeen[w])
		}
	}
	if len(epochSeen) != epochs || len(cellSeen) != cells {
		t.Errorf("stream reported epochs %v and cells %v, want %d and %d", epochSeen, cellSeen, epochs, cells)
	}
	if terminal != 1 || results != 1 {
		t.Errorf("terminal states = %d, results = %d, want 1 each", terminal, results)
	}
	if last := frames[len(frames)-1]; last.Event != evResult {
		t.Errorf("stream ends on %s, want the result", last.Event)
	}
}

// TestStandbyWaitsForStoppedPrimary SIGSTOPs the primary mid-training:
// it keeps the job log's lock, so the standby stays blocked and nothing
// writes the log. Resumed with SIGCONT, the primary finishes the job;
// shut down gracefully with SIGTERM, it releases the lock and the
// standby takes over the log with the job already done, not re-run.
func TestStandbyWaitsForStoppedPrimary(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a primary process and builds two suites")
	}
	base := t.TempDir()
	primary := startPrimary(t, base)
	standby := startStandby(t, base)
	j := submitJob(t, primary.h, "Drop", "GRU")
	firstCheckpoint(t, base)

	if err := primary.cmd.Process.Signal(syscall.SIGSTOP); err != nil {
		t.Fatal(err)
	}
	logDir := standbyConfig(base).JobLogDir
	before := dirSizes(t, logDir)
	select {
	case <-standby.done:
		t.Fatalf("standby took over while the primary was stopped (err=%v)", standby.err)
	case <-time.After(2 * time.Second):
	}
	if after := dirSizes(t, logDir); after != before {
		t.Fatalf("job log changed while the primary was stopped:\n  before: %s\n  after:  %s", before, after)
	}
	if err := primary.cmd.Process.Signal(syscall.SIGCONT); err != nil {
		t.Fatal(err)
	}

	done := pollTerminal(t, primary.h, j.ID, 3*time.Minute)
	if done.Status != JobDone || done.Restored {
		t.Fatalf("job on the resumed primary: %s restored=%v (%s)", done.Status, done.Restored, done.Error)
	}
	select {
	case <-standby.done:
		t.Fatal("standby took over from a live primary")
	case <-time.After(100 * time.Millisecond):
	}
	if err := primary.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := primary.wait(t, time.Minute); err != nil {
		t.Fatalf("primary shutdown: %v", err)
	}

	s := standby.takeOver(t, time.Minute)
	got, ok := s.jobs.get(j.ID)
	if !ok || got.Status != JobDone || got.Restored || got.Result == nil ||
		got.Result.MeanIUDR != done.Result.MeanIUDR {
		t.Fatalf("standby's view of the finished job: %+v (ok=%v), want %+v", got, ok, done)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := terminalRecords(t, logDir, j.ID); n != 1 {
		t.Errorf("terminal records for %s in the log = %d, want exactly 1", j.ID, n)
	}
}

// dirSizes renders a directory's file names and sizes.
func dirSizes(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s=%d ", e.Name(), fi.Size())
	}
	return b.String()
}
