package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/trap-repro/trap/internal/admission"
	"github.com/trap-repro/trap/internal/faultinject"
	"github.com/trap-repro/trap/internal/obs"
)

// newFaultServer builds a dedicated (non-shared) server so fault rules
// and metric assertions cannot interfere with the other service tests.
func newFaultServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Datasets:       []string{"tpch"},
		Params:         tinyParams(),
		Seed:           23,
		Workers:        2,
		QueueDepth:     4,
		RequestTimeout: 30 * time.Second,
		JobTimeout:     2 * time.Minute,
		MaxRetries:     2,
		RetryBackoff:   10 * time.Millisecond,
		Registry:       obs.NewRegistry(),
		Logf:           func(string, ...any) {},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// submitJob posts an assessment and returns the accepted job.
func submitJob(t *testing.T, h http.Handler, advisor, method string) Job {
	t.Helper()
	code, body := postJSON(t, h, "/v1/assess", assessRequest{
		Dataset: "tpch", Advisor: advisor, Method: method,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit %s/%s: %d %s", advisor, method, code, body)
	}
	var j Job
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	return j
}

// pollTerminal waits for a job to reach any terminal state (unlike
// waitForJob, which fails the test on failed/canceled).
func pollTerminal(t *testing.T, h http.Handler, id string, timeout time.Duration) Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		code, body := getPath(t, h, "/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("job poll: %d %s", code, body)
		}
		var j Job
		if err := json.Unmarshal(body, &j); err != nil {
			t.Fatal(err)
		}
		if j.Status.terminal() {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, j.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func deletePath(t *testing.T, h http.Handler, path string) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("DELETE", path, nil))
	return rec.Code, rec.Body.Bytes()
}

func metricAtLeast(t *testing.T, h http.Handler, name string, min float64) {
	t.Helper()
	_, body := getPath(t, h, "/metrics")
	v, ok := metricValue(body, name)
	if !ok {
		t.Errorf("metrics missing %s", name)
	} else if v < min {
		t.Errorf("metric %s = %g, want >= %g", name, v, min)
	}
}

// TestJobPanicIsolation injects a panic into one job's RL training and
// verifies the job is marked failed with a stack trace while a sibling
// job and the worker itself survive.
func TestJobPanicIsolation(t *testing.T) {
	s := newFaultServer(t, func(c *Config) {
		c.Injector = faultinject.NewSeeded(1, faultinject.Rule{
			Point: faultinject.PointRLEpoch, Action: faultinject.ActPanic, Every: 1, Count: 1,
		})
	})
	h := s.Handler()

	// Only the GRU job RL-trains, so only it can hit the panic point.
	crash := submitJob(t, h, "Drop", "GRU")
	sibling := submitJob(t, h, "Drop", "Random")

	failed := pollTerminal(t, h, crash.ID, time.Minute)
	if failed.Status != JobFailed {
		t.Fatalf("panicking job ended %s (%s), want failed", failed.Status, failed.Error)
	}
	if !strings.Contains(failed.Error, "panic") {
		t.Errorf("panic job error %q does not mention the panic", failed.Error)
	}
	if !strings.Contains(failed.Stack, "goroutine") {
		t.Errorf("panic job carries no stack trace: %q", failed.Stack)
	}

	ok := pollTerminal(t, h, sibling.ID, time.Minute)
	if ok.Status != JobDone {
		t.Fatalf("sibling job ended %s (%s), want done", ok.Status, ok.Error)
	}

	// The rule is exhausted and the worker survived the panic: the same
	// kind of job now completes.
	again := pollTerminal(t, h, submitJob(t, h, "Drop", "GRU").ID, time.Minute)
	if again.Status != JobDone {
		t.Fatalf("post-panic job ended %s (%s), want done", again.Status, again.Error)
	}

	metricAtLeast(t, h, "trapd_job_panics_total", 1)
	metricAtLeast(t, h, "trapd_jobs_failed_total", 1)
}

// TestJobTransientRetry injects one transient error and verifies the
// bounded retry loop reruns the job to completion.
func TestJobTransientRetry(t *testing.T) {
	s := newFaultServer(t, func(c *Config) {
		c.Injector = faultinject.NewSeeded(1, faultinject.Rule{
			Point: faultinject.PointRLEpoch, Action: faultinject.ActError, Every: 1, Count: 1,
		})
	})
	h := s.Handler()

	j := pollTerminal(t, h, submitJob(t, h, "Drop", "GRU").ID, time.Minute)
	if j.Status != JobDone {
		t.Fatalf("retried job ended %s (%s), want done", j.Status, j.Error)
	}
	if j.Attempts != 2 {
		t.Errorf("job took %d attempts, want 2 (one transient failure, one success)", j.Attempts)
	}
	metricAtLeast(t, h, "trapd_job_retries_total", 1)
}

// TestJobCancelEndpoints covers DELETE /v1/jobs/{id} for running,
// pending, terminal and unknown jobs, plus the queue-full 503.
func TestJobCancelEndpoints(t *testing.T) {
	s := newFaultServer(t, func(c *Config) {
		// One slow worker so a second job stays pending: every RL
		// workload sleeps, keeping the first job running long enough to
		// cancel it mid-training.
		c.Workers = 1
		c.QueueDepth = 1
		c.Injector = faultinject.NewSeeded(1, faultinject.Rule{
			Point: faultinject.PointRLWorkload, Action: faultinject.ActDelay,
			Every: 1, Delay: 200 * time.Millisecond,
		})
	})
	h := s.Handler()

	running := submitJob(t, h, "Drop", "GRU")
	waitForJob(t, h, running.ID, JobRunning, 30*time.Second)
	pending := submitJob(t, h, "Drop", "Random")

	// Queue now full (depth 1): the next submit is refused with a hint.
	rec := httptest.NewRecorder()
	body, _ := json.Marshal(assessRequest{Dataset: "tpch", Advisor: "Drop", Method: "Random"})
	req := httptest.NewRequest("POST", "/v1/assess", strings.NewReader(string(body)))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit: %d %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 response has no Retry-After header")
	}

	// Unknown job.
	if code, _ := deletePath(t, h, "/v1/jobs/job-424242"); code != http.StatusNotFound {
		t.Errorf("cancel unknown job: %d, want 404", code)
	}

	// Pending job: canceled immediately, before a worker picks it up.
	code, resp := deletePath(t, h, "/v1/jobs/"+pending.ID)
	if code != http.StatusAccepted {
		t.Fatalf("cancel pending job: %d %s", code, resp)
	}
	var pj Job
	if err := json.Unmarshal(resp, &pj); err != nil {
		t.Fatal(err)
	}
	if pj.Status != JobCanceled || !strings.Contains(pj.Error, "canceled") {
		t.Fatalf("pending job after cancel: %+v", pj)
	}

	// Running job: context canceled, training stops at the next boundary.
	if code, resp := deletePath(t, h, "/v1/jobs/"+running.ID); code != http.StatusAccepted {
		t.Fatalf("cancel running job: %d %s", code, resp)
	}
	rj := pollTerminal(t, h, running.ID, 30*time.Second)
	if rj.Status != JobCanceled || rj.Error != "canceled" {
		t.Fatalf("running job after cancel: status %s error %q", rj.Status, rj.Error)
	}

	// Terminal job: cancel conflicts.
	if code, _ := deletePath(t, h, "/v1/jobs/"+running.ID); code != http.StatusConflict {
		t.Errorf("cancel terminal job: %d, want 409", code)
	}

	metricAtLeast(t, h, "trapd_jobs_canceled_total", 2)
}

// TestJobCheckpointResume injects a transient error into the second RL
// epoch: the retry must resume from the checkpoint written after the
// first epoch rather than restart training from scratch.
func TestJobCheckpointResume(t *testing.T) {
	spool := t.TempDir()
	s := newFaultServer(t, func(c *Config) {
		p := tinyParams()
		p.RLEpochs = 2
		c.Params = p
		c.SpoolDir = spool
		c.CheckpointEvery = 1
		// The warmup job below consumes epoch hits 1-2. For the job
		// under test, hit 3 (epoch 0) passes and the epoch hook
		// checkpoints; hit 4 (epoch 1) fails transiently; the retry
		// resumes at epoch 1 and hit 5 passes (the count is exhausted).
		c.Injector = faultinject.NewSeeded(1, faultinject.Rule{
			Point: faultinject.PointRLEpoch, Action: faultinject.ActError,
			Every: 1, After: 3, Count: 1,
		})
	})
	h := s.Handler()

	// Warmup: the first training run on a fresh suite registers unseen
	// tokens in the shared vocabulary, which changes the embedding shape
	// of later model builds — a checkpoint taken during that run would
	// not match the retry's model and resume would (safely) fall back to
	// fresh training. One completed job puts the vocabulary in steady
	// state so the checkpoint under test is shape-compatible.
	warm := pollTerminal(t, h, submitJob(t, h, "Drop", "GRU").ID, time.Minute)
	if warm.Status != JobDone {
		t.Fatalf("warmup job ended %s (%s), want done", warm.Status, warm.Error)
	}

	j := pollTerminal(t, h, submitJob(t, h, "Drop", "GRU").ID, time.Minute)
	if j.Status != JobDone {
		t.Fatalf("job ended %s (%s), want done", j.Status, j.Error)
	}
	if j.Attempts != 2 {
		t.Errorf("job took %d attempts, want 2", j.Attempts)
	}
	if !j.Resumed {
		t.Error("retried job did not resume from its checkpoint")
	}
	metricAtLeast(t, h, "trapd_checkpoints_saved_total", 1)
	metricAtLeast(t, h, "trapd_checkpoints_resumed_total", 1)

	// Successful jobs clean up their spooled checkpoint.
	left, err := filepath.Glob(filepath.Join(spool, "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("spool dir still holds %v after success", left)
	}
	if _, err := os.Stat(spool); err != nil {
		t.Errorf("spool dir missing: %v", err)
	}
}

// TestWorkerPoolTypedErrors exercises the submit failure modes directly.
func TestWorkerPoolTypedErrors(t *testing.T) {
	block := make(chan struct{})
	started := make(chan string, 4)
	p := newWorkerPool(1, 1, func(id string) { started <- id; <-block })
	defer close(block)

	if err := p.submit("a", admission.Batch); err != nil {
		t.Fatalf("submit a: %v", err)
	}
	<-started // worker is now busy with "a", queue is empty
	if err := p.submit("b", admission.Batch); err != nil {
		t.Fatalf("submit b: %v", err)
	}
	if err := p.submit("c", admission.Interactive); err != ErrQueueFull {
		t.Fatalf("submit c: %v, want ErrQueueFull", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	drained := p.shutdown(ctx)
	if len(drained) != 1 || drained[0] != "b" {
		t.Fatalf("shutdown drained %v, want [b]", drained)
	}
	if err := p.submit("d", admission.Batch); err != ErrPoolClosed {
		t.Fatalf("submit after shutdown: %v, want ErrPoolClosed", err)
	}
}

// TestJobStoreGC verifies that only terminal jobs past their TTL are
// collected.
func TestJobStoreGC(t *testing.T) {
	st := newJobStore()
	now := time.Now()
	old := now.Add(-2 * time.Hour)
	recent := now.Add(-time.Minute)

	mk := func(status JobStatus, fin *time.Time) string {
		j := st.newJob(Job{Dataset: "tpch", Advisor: "Drop", Method: "Random"})
		j.Status = status
		j.Finished = fin
		st.restore(j)
		return j.ID
	}
	doneOld := mk(JobDone, &old)
	failedOld := mk(JobFailed, &old)
	canceledOld := mk(JobCanceled, &old)
	doneRecent := mk(JobDone, &recent)
	runningJob := mk(JobRunning, nil)
	pendingJob := mk(JobPending, nil)

	if dropped := st.gc(time.Hour, now); len(dropped) != 3 {
		t.Fatalf("gc removed %d jobs, want 3", len(dropped))
	}
	for _, id := range []string{doneOld, failedOld, canceledOld} {
		if _, ok := st.get(id); ok {
			t.Errorf("job %s survived gc", id)
		}
	}
	for _, id := range []string{doneRecent, runningJob, pendingJob} {
		if _, ok := st.get(id); !ok {
			t.Errorf("job %s was wrongly collected", id)
		}
	}
	if got := st.size(); got != 3 {
		t.Errorf("store size after gc = %d, want 3", got)
	}
}
