package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/trap-repro/trap/internal/admission"
)

// JobStatus is the lifecycle state of an async assessment job.
type JobStatus string

// Job lifecycle states: pending → running → done | failed | canceled.
// Jobs still queued when the server shuts down (or canceled via
// DELETE /v1/jobs/{id} before a worker picks them up) become canceled.
const (
	JobPending  JobStatus = "pending"
	JobRunning  JobStatus = "running"
	JobDone     JobStatus = "done"
	JobFailed   JobStatus = "failed"
	JobCanceled JobStatus = "canceled"
)

// terminal reports whether the status is a final state.
func (s JobStatus) terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// validJobStatus reports whether s names a known lifecycle state (used
// to validate the ?status= list filter).
func validJobStatus(s JobStatus) bool {
	switch s {
	case JobPending, JobRunning, JobDone, JobFailed, JobCanceled:
		return true
	}
	return false
}

// JobResult is the outcome of a completed assessment job.
type JobResult struct {
	MeanIUDR     float64 `json:"meanIUDR"`
	Workloads    int     `json:"workloads"`
	Pairs        int     `json:"pairs"`
	NonSargable  int     `json:"nonSargable"`
	ElapsedMilli int64   `json:"elapsedMs"`
}

// Job is one async assessment request.
type Job struct {
	ID         string    `json:"id"`
	Status     JobStatus `json:"status"`
	Dataset    string    `json:"dataset"`
	Advisor    string    `json:"advisor"`
	Method     string    `json:"method"`
	Constraint string    `json:"constraint"`
	// Tenant is the quota identity the job was admitted under (the
	// X-Trap-Tenant header; "default" when absent).
	Tenant string `json:"tenant,omitempty"`
	// Priority is the scheduling class ("interactive" or "batch").
	Priority string `json:"priority,omitempty"`
	Error    string `json:"error,omitempty"`
	// Stack holds the goroutine stack when the job failed on a panic.
	Stack string `json:"stack,omitempty"`
	// Attempts counts execution attempts (>1 after transient-error retries).
	Attempts int `json:"attempts,omitempty"`
	// Resumed reports whether training continued from a spooled checkpoint.
	Resumed bool `json:"resumed,omitempty"`
	// Restored reports that the job was interrupted by a process death
	// and re-enqueued from the job log on restart.
	Restored bool `json:"restored,omitempty"`
	// TraceID links the job to its pipeline trace (GET /v1/traces/{id});
	// empty when the tracer's head sampling skipped this job.
	TraceID  string     `json:"traceId,omitempty"`
	Result   *JobResult `json:"result,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
}

// jobNum extracts the numeric suffix of a "job-N" ID (0 when malformed);
// it orders the list endpoint and anchors its cursor.
func jobNum(id string) int64 {
	var n int64
	if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil {
		return 0
	}
	return n
}

// priority maps the job's stored class name back to the scheduler class.
func (j *Job) priority() admission.Priority {
	p, err := admission.ParsePriority(j.Priority)
	if err != nil {
		return admission.Batch
	}
	return p
}

// jobStore is a concurrency-safe in-memory job registry. It also holds
// the per-job cancel functions that back DELETE /v1/jobs/{id}.
type jobStore struct {
	mu      sync.Mutex
	next    atomic.Int64
	jobs    map[string]*Job
	cancels map[string]context.CancelFunc
	// prog is the per-job epoch high-water of folded progress records
	// and cells the set of folded measurement cells: epochs and cells
	// re-run after a retry or a restart are folded but not re-published
	// to the event stream.
	prog  map[string]int
	cells map[string]map[int]bool
}

func newJobStore() *jobStore {
	return &jobStore{
		jobs:    map[string]*Job{},
		cancels: map[string]context.CancelFunc{},
		prog:    map[string]int{},
		cells:   map[string]map[int]bool{},
	}
}

// newJob allocates the next job ID for a pending job built from the
// template (dataset, advisor, method, constraint, tenant, priority).
// The job enters the store when its submit record is applied.
func (s *jobStore) newJob(tpl Job) Job {
	tpl.ID = fmt.Sprintf("job-%d", s.next.Add(1))
	tpl.Status = JobPending
	tpl.Created = time.Now()
	return tpl
}

// restore inserts or replaces a job under its ID (the fold of a submit
// or state record) and keeps the ID sequence strictly ahead of every
// restored ID, so new submissions never collide with replayed ones.
func (s *jobStore) restore(j Job) {
	if n := jobNum(j.ID); n > 0 {
		for {
			cur := s.next.Load()
			if cur >= n || s.next.CompareAndSwap(cur, n) {
				break
			}
		}
	}
	jj := j
	s.mu.Lock()
	s.jobs[j.ID] = &jj
	s.mu.Unlock()
}

// get returns a snapshot of the job, if it exists.
func (s *jobStore) get(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// update applies fn to the job under the store lock.
func (s *jobStore) update(id string, fn func(*Job)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		fn(j)
	}
}

// list snapshots every live job, ordered by ascending job number (the
// stable order the list endpoint paginates over).
func (s *jobStore) list() []Job {
	s.mu.Lock()
	out := make([]Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, *j)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return jobNum(out[i].ID) < jobNum(out[k].ID) })
	return out
}

// countByStatus tallies jobs per status.
func (s *jobStore) countByStatus() map[JobStatus]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[JobStatus]int{}
	for _, j := range s.jobs {
		out[j.Status]++
	}
	return out
}

// size returns the number of jobs currently held (the live-job gauge).
func (s *jobStore) size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// setCancel registers the cancel function of a job's execution context.
func (s *jobStore) setCancel(id string, fn context.CancelFunc) {
	s.mu.Lock()
	s.cancels[id] = fn
	s.mu.Unlock()
}

// clearCancel drops a job's cancel registration (the job finished).
func (s *jobStore) clearCancel(id string) {
	s.mu.Lock()
	delete(s.cancels, id)
	s.mu.Unlock()
}

// takeCancel removes and returns a job's cancel function (nil when the
// job is not running).
func (s *jobStore) takeCancel(id string) context.CancelFunc {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn := s.cancels[id]
	delete(s.cancels, id)
	return fn
}

// advanceEpoch advances a live job's progress high-water, reporting
// whether epoch is new (and should be published to the event stream).
func (s *jobStore) advanceEpoch(id string, epoch int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[id]; !ok || epoch <= s.prog[id] {
		return false
	}
	s.prog[id] = epoch
	return true
}

// markCell records a live job's finished measurement cell, reporting
// whether it is new (and should be published to the event stream).
func (s *jobStore) markCell(id string, workload int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[id]; !ok || s.cells[id][workload] {
		return false
	}
	if s.cells[id] == nil {
		s.cells[id] = map[int]bool{}
	}
	s.cells[id][workload] = true
	return true
}

// remove drops one job entirely (a folded drop tombstone).
func (s *jobStore) remove(id string) {
	s.mu.Lock()
	s.forgetLocked(id)
	s.mu.Unlock()
}

// forgetLocked deletes every trace of a job (caller holds mu).
func (s *jobStore) forgetLocked(id string) {
	delete(s.jobs, id)
	delete(s.cancels, id)
	delete(s.prog, id)
	delete(s.cells, id)
}

// gc removes terminal jobs that finished more than ttl ago and returns
// their IDs so the caller can drop the durable and streaming state too.
// Running and pending jobs are never collected.
func (s *jobStore) gc(ttl time.Duration, now time.Time) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var dropped []string
	for id, j := range s.jobs {
		if !j.Status.terminal() || j.Finished == nil {
			continue
		}
		if now.Sub(*j.Finished) >= ttl {
			s.forgetLocked(id)
			dropped = append(dropped, id)
		}
	}
	return dropped
}

// Typed submission failures: handlers translate these into 503s with a
// Retry-After hint instead of silently dropping the job.
var (
	// ErrQueueFull means the pending-job queue is at capacity.
	ErrQueueFull = errors.New("job queue full")
	// ErrPoolClosed means the pool stopped intake (server shutting down).
	ErrPoolClosed = errors.New("worker pool is shut down")
)

// workerPool runs jobs on a bounded set of goroutines over a bounded
// two-class priority queue: interactive submissions are dequeued before
// batch ones, FIFO within a class, with one shared depth bound across
// both. Shutdown stops intake, cancels still-queued jobs and waits for
// in-flight jobs to drain.
type workerPool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues [admission.NumPriorities][]string
	depth  int
	closed bool
	wg     sync.WaitGroup
}

// newWorkerPool starts n workers pulling job IDs off the priority queue
// (total depth as given) and handing them to run.
func newWorkerPool(n, depth int, run func(id string)) *workerPool {
	p := &workerPool{depth: depth}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for {
				id, ok := p.next()
				if !ok {
					return
				}
				run(id)
			}
		}()
	}
	return p
}

// next blocks until a job is available (highest priority class first)
// or the pool is shut down.
func (p *workerPool) next() (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		for pri := admission.NumPriorities - 1; pri >= 0; pri-- {
			if q := p.queues[pri]; len(q) > 0 {
				id := q[0]
				p.queues[pri] = q[1:]
				return id, true
			}
		}
		if p.closed {
			return "", false
		}
		p.cond.Wait()
	}
}

// submit enqueues a job ID at the given priority, or reports why it
// cannot: ErrQueueFull when the shared queue is at capacity,
// ErrPoolClosed when intake has stopped.
func (p *workerPool) submit(id string, pri admission.Priority) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPoolClosed
	}
	if p.queuedLocked() >= p.depth {
		return ErrQueueFull
	}
	p.queues[pri] = append(p.queues[pri], id)
	p.cond.Signal()
	return nil
}

// queued returns how many jobs wait in the queue (all classes).
func (p *workerPool) queued() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queuedLocked()
}

func (p *workerPool) queuedLocked() int {
	n := 0
	for _, q := range p.queues {
		n += len(q)
	}
	return n
}

// shutdown stops intake and waits — up to ctx's deadline — for the
// workers to drain in-flight jobs. Job IDs still queued (never started)
// are returned so the caller can mark them canceled.
func (p *workerPool) shutdown(ctx context.Context) (canceled []string) {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		// Drain never-started jobs so workers exit after finishing only
		// what they already picked up.
		for pri := admission.NumPriorities - 1; pri >= 0; pri-- {
			canceled = append(canceled, p.queues[pri]...)
			p.queues[pri] = nil
		}
		p.cond.Broadcast()
	}
	p.mu.Unlock()

	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
	}
	return canceled
}
