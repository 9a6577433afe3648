package joblog

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/trap-repro/trap/internal/faultinject"
)

// collect reopens dir and returns every replayed record.
func collect(t *testing.T, dir string) ([]Record, *Log) {
	t.Helper()
	var recs []Record
	l, err := Open(dir, Options{Replay: func(r Record) error {
		recs = append(recs, r)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	return recs, l
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	type payload struct {
		Status string `json:"status"`
		N      int    `json:"n"`
	}
	var want []Record
	for i := 0; i < 20; i++ {
		rec, err := l.Append("state", fmt.Sprintf("job-%d", i%5), payload{Status: "running", N: i})
		if err != nil {
			t.Fatal(err)
		}
		if rec.Seq != uint64(i+1) {
			t.Fatalf("append %d got seq %d", i, rec.Seq)
		}
		want = append(want, rec)
	}
	if st := l.Stats(); st.Appends != 20 || st.NextSeq != 21 {
		t.Fatalf("stats after appends: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append("state", "job-0", nil); err == nil {
		t.Fatal("append after close succeeded")
	}

	got, l2 := collect(t, dir)
	defer l2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Seq != want[i].Seq || got[i].Type != want[i].Type || got[i].JobID != want[i].JobID {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
		var p payload
		if err := json.Unmarshal(got[i].Data, &p); err != nil || p.N != i {
			t.Fatalf("record %d payload %s: %v", i, got[i].Data, err)
		}
	}
	// The sequence continues where the first process left off.
	rec, err := l2.Append("state", "job-0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 21 {
		t.Fatalf("post-replay append got seq %d, want 21", rec.Seq)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := l.Append("submit", fmt.Sprintf("job-%d", i), map[string]string{"advisor": "Drop"}); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Segments < 2 {
		t.Fatalf("expected multiple segments, got %d", st.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, l2 := collect(t, dir)
	defer l2.Close()
	if len(got) != 50 {
		t.Fatalf("replayed %d records across segments, want 50", len(got))
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d out of order: seq %d", i, r.Seq)
		}
	}
}

// TestTornTailRecovery simulates a crash mid-append: extra garbage
// bytes on the tail must be truncated away and the log stay appendable.
func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append("state", "job-1", nil); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Append a torn frame: a header that promises more bytes than exist.
	seg := filepath.Join(dir, "00000001.seg")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF, 0x00, 0x00, 0x00, 1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}

	got, l2 := collect(t, dir)
	if len(got) != 5 {
		t.Fatalf("replayed %d records after torn tail, want 5", len(got))
	}
	st := l2.Stats()
	if st.CorruptFrames != 1 || st.TruncatedBytes == 0 {
		t.Fatalf("stats after torn-tail recovery: %+v", st)
	}
	after, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("tail not truncated: %d -> %d bytes", before.Size(), after.Size())
	}
	// The recovered log accepts new appends and a further replay sees
	// exactly the good records plus the new one.
	if _, err := l2.Append("state", "job-2", nil); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	got, l3 := collect(t, dir)
	defer l3.Close()
	if len(got) != 6 || got[5].JobID != "job-2" {
		t.Fatalf("post-recovery replay: %d records, last %+v", len(got), got[len(got)-1])
	}
}

// TestCRCMismatch flips a payload byte mid-log: replay must stop at the
// corruption instead of delivering a damaged record.
func TestCRCMismatch(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append("state", "job-1", map[string]int{"i": i}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	seg := filepath.Join(dir, "00000001.seg")
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0xFF // corrupt the last record's payload
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	got, l2 := collect(t, dir)
	defer l2.Close()
	if len(got) != 2 {
		t.Fatalf("replayed %d records past a CRC mismatch, want 2", len(got))
	}
	if st := l2.Stats(); st.CorruptFrames != 1 {
		t.Fatalf("corrupt frames = %d, want 1", st.CorruptFrames)
	}
}

func TestCompact(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := l.Append("state", fmt.Sprintf("job-%d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Keep a 3-record snapshot; everything else is garbage.
	snap := []Record{
		{Type: "submit", JobID: "job-7"},
		{Type: "state", JobID: "job-7"},
		{Type: "result", JobID: "job-7"},
	}
	if err := l.Compact(snap); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Segments != 1 {
		t.Fatalf("segments after compact = %d, want 1", st.Segments)
	}
	// Appends continue after compaction.
	if _, err := l.Append("state", "job-99", nil); err != nil {
		t.Fatal(err)
	}
	l.Close()

	got, l2 := collect(t, dir)
	defer l2.Close()
	if len(got) != 4 {
		t.Fatalf("replayed %d records after compact, want 4", len(got))
	}
	if got[0].JobID != "job-7" || got[3].JobID != "job-99" {
		t.Fatalf("compacted replay order: %+v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq <= got[i-1].Seq {
			t.Fatalf("non-monotonic seq after compact: %d then %d", got[i-1].Seq, got[i].Seq)
		}
	}
}

// TestConcurrentAppends hammers Append from many goroutines (run under
// -race in CI) and verifies every record is recovered exactly once.
func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 1 << 10, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := l.Append("state", fmt.Sprintf("job-%d", w), map[string]int{"i": i}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if _, err := l.Stats(), l.Close(); err != nil {
		t.Fatal(err)
	}
	got, l2 := collect(t, dir)
	defer l2.Close()
	if len(got) != workers*per {
		t.Fatalf("replayed %d records, want %d", len(got), workers*per)
	}
	seen := map[uint64]bool{}
	for _, r := range got {
		if seen[r.Seq] {
			t.Fatalf("duplicate seq %d", r.Seq)
		}
		seen[r.Seq] = true
	}
}

// TestAppendFailureDegrades proves the read-only degradation contract:
// one injected append failure (standing in for ENOSPC or a bad disk)
// makes every subsequent append fail with ErrDegraded, while a fresh
// Open on the same directory recovers the good prefix and is writable.
func TestAppendFailureDegrades(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.NewSeeded(1, faultinject.Rule{
		Point: faultinject.PointJoblogAppend, Action: faultinject.ActError,
		Every: 1, After: 1, Count: 1, // first append fine, second fails
	})
	l, err := Open(dir, Options{Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append("a", "job-1", nil); err != nil {
		t.Fatalf("first append: %v", err)
	}
	if _, err := l.Append("b", "job-1", nil); err == nil {
		t.Fatal("injected append failure not surfaced")
	} else if !errors.Is(err, ErrDegraded) {
		t.Fatalf("injected failure is %v, want ErrDegraded", err)
	}
	if !l.Degraded() {
		t.Fatal("log not degraded after append failure")
	}
	// Sticky: later appends fail without touching the injector, and
	// compaction is refused too.
	if _, err := l.Append("c", "job-1", nil); !errors.Is(err, ErrDegraded) {
		t.Fatalf("append after degradation: %v, want ErrDegraded", err)
	}
	if err := l.Compact(nil); !errors.Is(err, ErrDegraded) {
		t.Fatalf("compact after degradation: %v, want ErrDegraded", err)
	}
	st := l.Stats()
	if !st.Degraded || st.Appends != 1 {
		t.Fatalf("stats after degradation: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery is a restart: reopen, replay the acknowledged record,
	// append again.
	recs, l2 := collect(t, dir)
	defer l2.Close()
	if len(recs) != 1 || recs[0].Type != "a" {
		t.Fatalf("reopen replayed %+v, want the one acknowledged record", recs)
	}
	if l2.Degraded() {
		t.Fatal("fresh open inherited degradation")
	}
	if _, err := l2.Append("d", "job-1", nil); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
}

// TestStatsCounters pins the new durability counters: torn-tail
// truncations and compactions are counted separately from the
// long-standing CorruptFrames total.
func TestStatsCounters(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append("s", fmt.Sprintf("job-%d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Compact([]Record{{Type: "s", JobID: "job-2"}}); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Compactions != 1 || st.TornTails != 0 {
		t.Fatalf("stats after compact: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail and reopen: one torn-tail truncation, one corrupt
	// frame, no compactions in the new process lifetime.
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0, 0}); err != nil { // half a header
		t.Fatal(err)
	}
	f.Close()
	_, l2 := collect(t, dir)
	defer l2.Close()
	if st := l2.Stats(); st.TornTails != 1 || st.CorruptFrames != 1 || st.Compactions != 0 {
		t.Fatalf("stats after torn-tail reopen: %+v", st)
	}
}

// TestLockSingleWriter opens one directory twice in one process (two
// descriptors, so two flock holders): the second Open reports that it
// is waiting, blocks while the first log is open, and returns only
// after the first Close, replaying what the first writer appended.
func TestLockSingleWriter(t *testing.T) {
	dir := t.TempDir()
	first, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	waiting := make(chan struct{})
	type opened struct {
		l    *Log
		recs []Record
		err  error
	}
	done := make(chan opened, 1)
	go func() {
		var recs []Record
		l, err := Open(dir, Options{
			NoSync: true,
			OnWait: func() { close(waiting) },
			Replay: func(r Record) error { recs = append(recs, r); return nil },
		})
		done <- opened{l, recs, err}
	}()
	select {
	case <-waiting:
	case <-time.After(10 * time.Second):
		t.Fatal("second Open never reported waiting for the lock")
	}
	if _, err := first.Append("submit", "job-1", nil); err != nil {
		t.Fatal(err)
	}
	select {
	case o := <-done:
		t.Fatalf("second Open returned while the first log was open: %+v", o)
	case <-time.After(200 * time.Millisecond):
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	var o opened
	select {
	case o = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("second Open still blocked after the first Close")
	}
	if o.err != nil {
		t.Fatal(o.err)
	}
	defer o.l.Close()
	if len(o.recs) != 1 || o.recs[0].JobID != "job-1" {
		t.Fatalf("second writer replayed %+v, want the first writer's record", o.recs)
	}
	if _, err := o.l.Append("state", "job-1", nil); err != nil {
		t.Fatal(err)
	}
}

// TestLockFileNotASegment checks that the lock file is invisible to the
// segment scan and survives Compact.
func TestLockFileNotASegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 128, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 10; i++ {
		if _, err := l.Append("state", fmt.Sprintf("job-%d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	nums, err := l.segmentNums()
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(nums)+1 {
		t.Fatalf("dir holds %d files for %d segments, want segments plus the lock file", len(ents), len(nums))
	}
	if err := l.Compact([]Record{{Type: "state", JobID: "job-9"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, LockFile)); err != nil {
		t.Fatalf("lock file after compact: %v", err)
	}
	if st := l.Stats(); st.Segments != 1 {
		t.Fatalf("segments after compact = %d, want 1", st.Segments)
	}
}
