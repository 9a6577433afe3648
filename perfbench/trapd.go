package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/trap-repro/trap/internal/obs"
	olog "github.com/trap-repro/trap/internal/obs/log"
	"github.com/trap-repro/trap/internal/service"
)

// jobSpec is one assess job of the trapd-jobs mix. Every job runs on
// TPC-H under the SharedTable constraint.
type jobSpec struct {
	Advisor string `json:"advisor"`
	Method  string `json:"method"`
}

func (j jobSpec) key() string { return j.Advisor + "/" + j.Method }

// trapdAdvisors mixes heuristic and learned advisors; the learned ones
// train on every job, as trapd does.
var trapdAdvisors = []string{"Extend", "DB2Advis", "AutoAdmin", "Drop", "SWIRL", "DRLindex"}

// clientMixes splits the mix between the two closed-loop clients and
// orders each client's cycle for one round. The first client owns every
// TRAP job, so the TRAP job that pretrains is always that client's first;
// the clients' specs are disjoint, so two identical jobs never run at
// once and never share a spooled checkpoint. Every round draws a fresh
// order from the seed: which jobs overlap changes how long a round takes,
// and varying it within a run keeps the run's median from depending on
// one pairing.
func clientMixes(seed int64, round int) [2][]jobSpec {
	var mix [2][]jobSpec
	half := len(trapdAdvisors) / 2
	for i, a := range trapdAdvisors {
		mix[0] = append(mix[0], jobSpec{a, "TRAP"})
		mix[1] = append(mix[1], jobSpec{a, "GRU"})
		mix[i/half] = append(mix[i/half], jobSpec{a, "Random"})
	}
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(round)))
	for c := range mix {
		rng.Shuffle(len(mix[c]), func(i, j int) { mix[c][i], mix[c][j] = mix[c][j], mix[c][i] })
	}
	return mix
}

// jobRun is one job as the client saw it.
type jobRun struct {
	Round, Client, Index int
	Spec                 jobSpec
	Status               string
	Err                  string
	Result               jobResult
	LatencyMS            float64 // submit to observed terminal state
	SubmitMS             float64
	QueueWaitMS, ExecMS  float64 // from the job's server-side timestamps
}

// jobResult is the part of a job result that must repeat exactly.
type jobResult struct {
	IUDR      float64 `json:"iudr"`
	Workloads int     `json:"workloads"`
	Pairs     int     `json:"pairs"`
}

// trapd is an in-process trapd: the handler is driven through httptest
// requests and responses, with no listener.
type trapd struct {
	srv *service.Server
	h   http.Handler
	reg *obs.Registry
	dir string
}

// newTrapd builds a server with a durable job log and checkpoint spool
// in a fresh directory under base.
func newTrapd(base string, seed int64) (*trapd, error) {
	dir, err := os.MkdirTemp(base, "trapd-")
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	srv, err := service.NewServer(service.Config{
		Datasets:  []string{"tpch"},
		Seed:      seed,
		Workers:   2,
		JobLogDir: filepath.Join(dir, "joblog"),
		SpoolDir:  filepath.Join(dir, "spool"),
		Registry:  reg,
		Logger:    olog.New(os.Stderr, slog.LevelWarn, olog.FormatText),
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &trapd{srv: srv, h: srv.Handler(), reg: reg, dir: dir}, nil
}

// close drains the worker pool, closes the job log and removes the
// server's directory.
func (t *trapd) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	t.srv.Drain(ctx)
	err := t.srv.Close()
	if rerr := os.RemoveAll(t.dir); err == nil {
		err = rerr
	}
	return err
}

func (t *trapd) do(method, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// pollEvery is the client's status poll interval.
const pollEvery = 2 * time.Millisecond

// runJob submits one job, polls it to a terminal state and returns what
// the client saw. Its spans (job, submit, each poll) share trace id.
func (t *trapd) runJob(spec jobSpec, tr *tracer, id int64, round, parent int) jobRun {
	run := jobRun{Spec: spec}
	js := tr.begin(id, parent, round, "job")
	defer tr.end(js)
	t0 := time.Now()
	body, _ := json.Marshal(map[string]string{
		"dataset": "tpch", "advisor": spec.Advisor, "method": spec.Method, "constraint": "shared"})
	ss := tr.begin(id, js, round, "submit")
	code, resp := t.do(http.MethodPost, "/v1/assess", body)
	tr.end(ss)
	run.SubmitMS = msSince(t0)
	var job service.Job
	if code != http.StatusAccepted {
		run.Status, run.Err = "rejected", fmt.Sprintf("submit: HTTP %d: %s", code, bytes.TrimSpace(resp))
		return run
	}
	if err := json.Unmarshal(resp, &job); err != nil {
		run.Status, run.Err = "rejected", fmt.Sprintf("submit: %v", err)
		return run
	}
	for {
		time.Sleep(pollEvery)
		ps := tr.begin(id, js, round, "poll")
		code, resp = t.do(http.MethodGet, "/v1/jobs/"+job.ID, nil)
		tr.end(ps)
		if code != http.StatusOK {
			run.Status, run.Err = "lost", fmt.Sprintf("poll: HTTP %d", code)
			return run
		}
		if err := json.Unmarshal(resp, &job); err != nil {
			run.Status, run.Err = "lost", fmt.Sprintf("poll: %v", err)
			return run
		}
		if job.Status == service.JobDone || job.Status == service.JobFailed || job.Status == service.JobCanceled {
			break
		}
	}
	run.LatencyMS = msSince(t0)
	run.Status, run.Err = string(job.Status), job.Error
	if job.Result != nil {
		run.Result = jobResult{IUDR: job.Result.MeanIUDR, Workloads: job.Result.Workloads, Pairs: job.Result.Pairs}
	}
	if job.Started != nil && job.Finished != nil {
		run.QueueWaitMS = float64(job.Started.Sub(job.Created)) / float64(time.Millisecond)
		run.ExecMS = float64(job.Finished.Sub(*job.Started)) / float64(time.Millisecond)
	}
	return run
}

// runRound runs one pass of both clients' cycles concurrently, each
// client submitting its next job only when the previous one is terminal.
func (t *trapd) runRound(mix [2][]jobSpec, tr *tracer, round, roundSpan int) []jobRun {
	var wg sync.WaitGroup
	runs := make([][]jobRun, len(mix))
	for c := range mix {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, spec := range mix[c] {
				id := int64(round)*1_000_000 + int64(c)*1000 + int64(i)
				r := t.runJob(spec, tr, id, round, roundSpan)
				r.Round, r.Client, r.Index = round, c, i
				runs[c] = append(runs[c], r)
			}
		}(c)
	}
	wg.Wait()
	return append(runs[0], runs[1]...)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
