package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"github.com/trap-repro/trap/internal/joblog"
	"github.com/trap-repro/trap/internal/trace"
)

// This file is the job log's one fold. Every change to a job that a
// client can see — its lifecycle state, a finished training epoch, a
// finished measurement cell, its removal by the GC — is a record: it is
// appended to the job log (when Config.JobLogDir is set) and then
// applied by apply. The live path and the startup replay call the same
// apply on the same records in the same order, so a restarted server,
// or a standby that takes over a dead primary's log, rebuilds the job
// table and every SSE event ID exactly as the writer issued them.

// Job-log record types.
const (
	// recSubmit and recState carry a full Job snapshot; the fold keeps
	// the last one per job.
	recSubmit = "submit"
	recState  = "state"
	// recProgress marks a finished RL epoch (progressData).
	recProgress = "progress"
	// recCell marks a finished measurement cell (cellData).
	recCell = "cell"
	// recDrop is the GC tombstone: the fold forgets the job.
	recDrop = "drop"
)

// progressData is the payload of a recProgress record (1-based epochs
// completed, matching JobEvent.Epoch). Points carries the epoch's RL
// telemetry values (rl_loss, rl_mean_reward, ...) so a replaying server
// serves the job's training curves and telemetry events too.
type progressData struct {
	Epoch  int                `json:"epoch"`
	Points map[string]float64 `json:"points,omitempty"`
}

// cellData is the payload of a recCell record.
type cellData struct {
	Workload int `json:"workload"`
	Pairs    int `json:"pairs"`
}

// record appends one record to the job log and applies it. A failed
// append does not stop the record from being applied — the in-memory
// job keeps running — but a degraded log flips the server into
// read-only draining: it finishes what it has and takes no new work.
func (s *Server) record(typ, id string, data any) {
	s.recMu.Lock()
	defer s.recMu.Unlock()
	s.recordLocked(typ, id, data)
}

// recordLocked is record with recMu held. Holding recMu from append to
// apply makes the apply order the log order, which replay repeats.
func (s *Server) recordLocked(typ, id string, data any) {
	raw, err := json.Marshal(data)
	if err != nil {
		s.log.Error(context.Background(), "trapd: encoding job record", "job", id, "type", typ, "err", err)
		return
	}
	rec := joblog.Record{Type: typ, JobID: id, Data: raw}
	if s.jlog != nil {
		if _, err := s.jlog.Append(typ, id, json.RawMessage(raw)); err != nil {
			if errors.Is(err, joblog.ErrDegraded) && s.draining.CompareAndSwap(false, true) {
				s.log.Error(context.Background(),
					"trapd: job log degraded, node entering read-only drain", "err", err)
			}
			s.log.Warn(context.Background(), "trapd: job log append failed", "job", id, "err", err)
		}
	}
	s.apply(rec)
}

// transition applies fn to a copy of the job and, when fn reports a
// change, records the new state. It returns the job as it now stands
// and whether fn changed it.
func (s *Server) transition(id string, fn func(*Job) bool) (Job, bool) {
	s.recMu.Lock()
	defer s.recMu.Unlock()
	j, ok := s.jobs.get(id)
	if !ok || !fn(&j) {
		return j, false
	}
	s.recordLocked(recState, id, j)
	return j, true
}

// apply folds one record into the job table, the SSE hubs and the
// telemetry scopes. Damaged payloads are skipped. Epoch and cell events
// are published once per job however often the work behind them runs:
// a retried, resumed or taken-over job re-runs epochs since its last
// checkpoint, and the per-job high-water keeps them off the stream.
func (s *Server) apply(rec joblog.Record) {
	switch rec.Type {
	case recSubmit, recState:
		var j Job
		if json.Unmarshal(rec.Data, &j) != nil || j.ID == "" {
			return
		}
		s.jobs.restore(j)
		hub := s.events.create(j.ID)
		hub.publish(JobEvent{Type: evState, Status: j.Status, Error: j.Error})
		if j.Status.terminal() {
			if j.Status == JobDone && j.Result != nil {
				hub.publish(JobEvent{Type: evResult, Result: j.Result})
			}
			hub.closeHub()
		}
	case recProgress:
		var pd progressData
		if json.Unmarshal(rec.Data, &pd) != nil || !s.jobs.advanceEpoch(rec.JobID, pd.Epoch) {
			return
		}
		s.events.publish(rec.JobID, JobEvent{Type: evEpoch, Epoch: pd.Epoch})
		if len(pd.Points) > 0 {
			// On the live path the training loop has already appended
			// these points; the series' monotonic step gate drops the
			// repeats. On replay they rebuild the job's curves.
			sc := s.tscopes.getOrCreate(rec.JobID)
			for name, v := range pd.Points {
				sc.Series(name).Append(int64(pd.Epoch), v)
			}
			s.events.publish(rec.JobID, JobEvent{Type: evTelemetry, Epoch: pd.Epoch, Points: pd.Points})
		}
	case recCell:
		var cd cellData
		if json.Unmarshal(rec.Data, &cd) != nil || !s.jobs.markCell(rec.JobID, cd.Workload) {
			return
		}
		w := cd.Workload
		s.events.publish(rec.JobID, JobEvent{Type: evCell, Workload: &w, Pairs: cd.Pairs})
	case recDrop:
		s.jobs.remove(rec.JobID)
		s.events.drop(rec.JobID)
		s.tscopes.drop(rec.JobID)
	}
}

// openJobLog opens the durable job log — waiting, as a standby, while
// another process holds it — and replays it through apply. It then
// compacts away the records of GC'd jobs and re-enqueues every job the
// previous writer left pending or running; with a spool they resume
// from their latest checkpoint.
func (s *Server) openJobLog() error {
	var recs []joblog.Record
	l, err := joblog.Open(s.cfg.JobLogDir, joblog.Options{
		Injector: s.cfg.Injector,
		OnWait: func() {
			s.log.Info(context.Background(),
				"trapd: job log held by another process; waiting as standby", "dir", s.cfg.JobLogDir)
		},
		Replay: func(r joblog.Record) error {
			s.apply(r)
			recs = append(recs, r)
			return nil
		},
	})
	if err != nil {
		return fmt.Errorf("service: job log: %w", err)
	}
	s.jlog = l

	// Keep every record of every job still live, in log order: the next
	// replay must rebuild the same event IDs this one did.
	var snapshot []joblog.Record
	for _, r := range recs {
		if _, live := s.jobs.get(r.JobID); live && r.Type != recDrop {
			snapshot = append(snapshot, r)
		}
	}
	if err := l.Compact(snapshot); err != nil {
		return fmt.Errorf("service: job log compact: %w", err)
	}

	restored, requeued := 0, 0
	for _, j := range s.jobs.list() {
		restored++
		if j.Status.terminal() {
			continue
		}
		requeued++
		s.transition(j.ID, func(j *Job) bool {
			j.Status = JobPending
			j.Restored = true
			j.Started, j.Finished = nil, nil
			j.Error, j.Stack = "", ""
			j.Result = nil
			return true
		})
		if err := s.pool.submit(j.ID, j.priority()); err != nil {
			s.transition(j.ID, func(j *Job) bool {
				now := time.Now()
				j.Status = JobFailed
				j.Error = fmt.Sprintf("re-enqueue after restart: %v", err)
				j.Finished = &now
				return true
			})
		}
	}
	if restored > 0 {
		s.mJobsRestored.Add(int64(requeued))
		s.log.Info(context.Background(), "trapd: job log replayed",
			"jobs", restored, "requeued", requeued, "dir", s.cfg.JobLogDir)
	}
	return nil
}

// cellObserver builds the span→record bridge: one cell record per
// finished measurement cell of the job's trace.
func (s *Server) cellObserver(id string) func(trace.SpanEnd) {
	return func(se trace.SpanEnd) {
		if se.Name != "assess.cell" {
			return
		}
		var cd cellData
		ok := false
		for _, a := range se.Attrs {
			v, isInt := a.Value.(int64)
			if !isInt {
				continue
			}
			switch a.Key {
			case "workload":
				cd.Workload, ok = int(v), true
			case "pairs":
				cd.Pairs = int(v)
			}
		}
		if ok {
			s.record(recCell, id, cd)
		}
	}
}

// registerJoblogMetrics exposes the durable log's replay/durability
// counters as scrape-time gauges.
func (s *Server) registerJoblogMetrics(lg *joblog.Log) {
	for name, fn := range map[string]func(joblog.Stats) float64{
		"trapd_joblog_records_replayed":     func(st joblog.Stats) float64 { return float64(st.Replayed) },
		"trapd_joblog_appends_total":        func(st joblog.Stats) float64 { return float64(st.Appends) },
		"trapd_joblog_corrupt_frames_total": func(st joblog.Stats) float64 { return float64(st.CorruptFrames) },
		"trapd_joblog_torn_tails_total":     func(st joblog.Stats) float64 { return float64(st.TornTails) },
		"trapd_joblog_truncated_bytes":      func(st joblog.Stats) float64 { return float64(st.TruncatedBytes) },
		"trapd_joblog_compactions_total":    func(st joblog.Stats) float64 { return float64(st.Compactions) },
		"trapd_joblog_segments":             func(st joblog.Stats) float64 { return float64(st.Segments) },
		"trapd_joblog_active_bytes":         func(st joblog.Stats) float64 { return float64(st.ActiveBytes) },
		"trapd_joblog_degraded": func(st joblog.Stats) float64 {
			if st.Degraded {
				return 1
			}
			return 0
		},
	} {
		fn := fn
		s.reg.GaugeFunc(name, func() float64 { return fn(lg.Stats()) })
	}
	for name, help := range map[string]string{
		"trapd_joblog_records_replayed":     "Job-log records recovered by replay at startup.",
		"trapd_joblog_corrupt_frames_total": "Job-log frames dropped during replay (CRC mismatch or torn tail).",
		"trapd_joblog_torn_tails_total":     "Torn-tail truncation events recovered by replay.",
		"trapd_joblog_truncated_bytes":      "Tail bytes cut from the last segment to recover a torn write.",
		"trapd_joblog_compactions_total":    "Successful job-log compactions this process lifetime.",
		"trapd_joblog_degraded":             "1 when an append failed and the job log is read-only (node drains).",
	} {
		s.reg.Describe(name, help)
	}
}
