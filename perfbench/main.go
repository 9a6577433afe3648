// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload of the robustness-assessment pipeline for a fixed time, checks
// every output, and prints its metrics:
//
//	bash perfbench/run.sh --workload fig6-tpch --seed 42 --seconds 35 --trace 0
//
// run.sh builds this binary from the checkout and runs it from the
// repository root, where it reads BENCHMARK.json for the metric names.
// Workloads:
//
//	fig6-tpch       the quick-scale Fig. 6 grid on TPC-H (120 cells per round)
//	advisors-tpcds  10 advisors × Random × 3 constraints on TPC-DS (30 cells per round)
//	trapd-jobs      an in-process trapd with a job log and spool, 2 closed-loop clients
//
// A round is one unit of work (a grid on a fresh suite, or one pass of
// both trapd clients' job cycles); rounds repeat until --seconds is used.
// With --trace 0 the last line reports the end-to-end metrics; with
// --trace 1, odd rounds run with benchmark-side spans and a CPU profile,
// and the last line reports the per-layer metrics. The last line is one
// JSON object with the keys correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"time"

	"github.com/trap-repro/trap/internal/assess"
	"github.com/trap-repro/trap/internal/engine"
	"github.com/trap-repro/trap/internal/obs"
)

// setupSamples is how many times a run sets up before its timed part;
// every round adds one more sample, and setup_s is their median.
const setupSamples = 3

// exactRepeat lists the per-layer counts that must repeat exactly between
// rounds that do the same work at a fixed seed.
var exactRepeat = []string{"engine.whatif_calls", "nn.gemm_flops", "core.rollouts", "assess.pairs"}

// unsteadyCounts should repeat exactly too but do not at the commit that
// introduced the benchmark, so a difference is printed, not failed. A plan
// that fails validation is not cached, and two concurrent lookups of one
// failing key share one build or make two (engine.plan_misses varies by
// about 1 in 44k); the distinct plans cached vary by a few in 50k–200k.
var unsteadyCounts = []string{"engine.plan_misses", "engine.cache_entries"}

type options struct {
	workload  string
	seed      int64
	seconds   time.Duration
	traced    bool
	goldenOut string
}

// roundStat is what one round measured.
type roundStat struct {
	wall, cpu, allocMB float64
	peakHeapMB         float64
	layers             map[string]float64
	traced             bool
	cpuPkg             map[string]int64
	cpuTotal           int64
}

// outcome is everything one run measured and checked.
type outcome struct {
	setup    []float64 // set-up times, s
	rounds   []roundStat
	ops      int       // grid cells or jobs, all rounds
	opMS     []float64 // per-op latency, ms
	warmFrom int       // first round that is comparable with later ones
	extra    map[string]metric
	verdict  verdict
	spans    []span
}

func main() {
	var o options
	var seconds, traceFlag int
	flag.StringVar(&o.workload, "workload", "", "fig6-tpch, advisors-tpcds or trapd-jobs")
	flag.Int64Var(&o.seed, "seed", 42, "workload seed")
	flag.IntVar(&seconds, "seconds", 30, "measurement time per run")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting the per-layer metrics")
	flag.StringVar(&o.goldenOut, "golden-out", "", "merge this run's outputs into this goldens file")
	flag.Parse()
	o.seconds = time.Duration(seconds) * time.Second
	o.traced = traceFlag == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	runtime.GOMAXPROCS(2)
	man, err := loadManifest("BENCHMARK.json")
	if err != nil {
		return err
	}
	var out *outcome
	switch o.workload {
	case "fig6-tpch":
		out, err = runOffline(fig6TPCH, o)
	case "advisors-tpcds":
		out, err = runOffline(advisorsTPCDS, o)
	case "trapd-jobs":
		out, err = runTrapd(o)
	default:
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		return err
	}
	if out.verdict.attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	measured := out.metrics()
	list, err := man.pick(measured, o.traced)
	if err != nil {
		return err
	}
	if o.traced {
		path, err := writeSpans(filepath.Join(".bench_build", "trace"),
			fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed), out.spans)
		if err != nil {
			return err
		}
		fmt.Printf("spans: %d written to %s\n", len(out.spans), path)
	}
	for i, r := range out.rounds {
		fmt.Printf("round %d: wall %.3fs cpu %.3fs alloc %.1fMB traced=%v", i, r.wall, r.cpu, r.allocMB, r.traced)
		for _, name := range repeatCounts() {
			fmt.Printf(" %s=%v", name, r.layers[name])
		}
		fmt.Println()
	}
	v := out.verdict
	fmt.Printf("set-up samples (s):")
	for _, x := range out.setup {
		fmt.Printf(" %.3f", x)
	}
	fmt.Println()
	fmt.Printf("workload %s seed %d: %d rounds, %d ops, output digest %s\n",
		o.workload, o.seed, len(out.rounds), out.ops, v.digest)
	for _, n := range v.notes {
		fmt.Println(n)
	}
	for _, p := range v.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	fmt.Printf("output check: correct=%v attempted=%d failed=%d\n", len(v.problems) == 0, v.attempted, v.failed)
	res := struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}{len(v.problems) == 0, v.attempted, v.failed, map[string]json.RawMessage{}}
	for i, group := range [][]declared{man.EndToEnd, man.PerLayer} {
		fmt.Println([]string{"end-to-end metrics:", "per-layer metrics:"}[i])
		for _, d := range group {
			m := measured[d.Name]
			fmt.Printf("  %-28s %16s %-6s n=%d\n", d.Name, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit, m.N)
		}
	}
	for _, d := range list {
		m := measured[d.Name]
		raw := fmt.Sprintf(`{"value": %s, "unit": %q}`, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		res.Metrics[d.Name] = json.RawMessage(raw)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// tracerFor returns tr for the rounds a traced run traces (odd rounds)
// and nil otherwise.
func tracerFor(tr *tracer, round int) *tracer {
	if round%2 == 1 {
		return tr
	}
	return nil
}

// keepGoing reports whether another round fits: rounds continue until
// minRounds are done and the next one, at the median round time so far,
// would end past the measurement time.
func keepGoing(o options, start time.Time, rounds []roundStat, minRounds int) bool {
	if len(rounds) < minRounds {
		return true
	}
	walls := make([]float64, len(rounds))
	for i, r := range rounds {
		walls[i] = r.wall
	}
	next := time.Duration(median(walls) * float64(time.Second))
	return time.Since(start)+next <= o.seconds
}

// measureRound runs body as one timed round. e is the engine whose plan
// cache the round uses and svc the trapd registry (nil offline). A traced
// round also records a CPU profile.
func measureRound(e *engine.Engine, svc *obs.Registry, traced bool, body func()) (roundStat, error) {
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return roundStat{}, fmt.Errorf("cpu profile: %w", err)
		}
	}
	peak := startHeapPeak()
	before := snapshot(e, svc)
	t0 := time.Now()
	body()
	wall := time.Since(t0)
	after := snapshot(e, svc)
	st := roundStat{traced: traced, peakHeapMB: peak.end() / 1e6}
	if traced {
		pprof.StopCPUProfile()
		var err error
		if st.cpuPkg, st.cpuTotal, err = cpuByPackage(prof.Bytes()); err != nil {
			return roundStat{}, err
		}
	}
	d := delta(before, after)
	st.wall, st.cpu, st.allocMB = wall.Seconds(), d["cpu"], d["/gc/heap/allocs:bytes"]/1e6
	st.layers = layerMetrics(d, after)
	return st, nil
}

func repeatCounts() []string { return append(append([]string(nil), exactRepeat...), unsteadyCounts...) }

// checkRepeats flags counts that differ between the rounds from
// out.warmFrom on: an exact-repeat count fails the run, an unsteady one
// is reported.
func (out *outcome) checkRepeats() {
	for _, name := range repeatCounts() {
		for r := out.warmFrom + 1; r < len(out.rounds); r++ {
			a, b := out.rounds[out.warmFrom].layers[name], out.rounds[r].layers[name]
			if a == b {
				continue
			}
			msg := fmt.Sprintf("count %s did not repeat at a fixed seed: round %d %v, round %d %v",
				name, out.warmFrom, a, r, b)
			if slices.Contains(exactRepeat, name) {
				out.verdict.problem("%s", msg)
			} else {
				out.verdict.notes = append(out.verdict.notes, "unsteady "+msg)
			}
		}
	}
}

func runOffline(g grid, o options) (*outcome, error) {
	out := &outcome{extra: map[string]metric{}}
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	build := func(round int) (*assess.Suite, error) {
		t := tracerFor(tr, round)
		sp := t.begin(int64(round)*1_000_000, 0, round, "suite")
		t0 := time.Now()
		s, err := g.newSuite()
		out.setup = append(out.setup, time.Since(t0).Seconds())
		t.end(sp)
		if err != nil {
			return nil, fmt.Errorf("building %s suite: %w", g.dataset, err)
		}
		return s, nil
	}
	// Only the last set-up suite is kept (for round 0), so one suite at a
	// time is alive; every later round builds its own, adding a sample.
	var s *assess.Suite
	for i := 0; i < setupSamples; i++ {
		var err error
		if s, err = build(i + 1 - setupSamples); err != nil {
			return nil, err
		}
	}
	// Two rounds at least: a fig6-tpch round takes about half of the run,
	// and the median of two damps a round the machine slowed.
	const minRounds = 2
	plan := g.plan(rand.New(rand.NewSource(o.seed)))
	var grids [][]cell
	start := time.Now()
	for round := 0; keepGoing(o, start, out.rounds, minRounds); round++ {
		if round > 0 {
			var err error
			if s, err = build(round); err != nil {
				return nil, err
			}
		}
		t := tracerFor(tr, round)
		rs := t.begin(int64(round)*1_000_000, 0, round, "round")
		var cells []cell
		var lat []float64
		st, err := measureRound(s.E, nil, t != nil, func() { cells, lat = assessGrid(s, plan, t, round, rs) })
		t.end(rs)
		if err != nil {
			return nil, err
		}
		out.rounds = append(out.rounds, st)
		out.ops += len(cells)
		out.opMS = append(out.opMS, lat...)
		grids = append(grids, cells)
	}

	golds, err := loadGoldens(goldensJSON)
	if err != nil {
		return nil, err
	}
	name := o.workload
	out.verdict = checkCells(golds.Cells[name][strconv.FormatInt(o.seed, 10)], grids, g.size())
	out.checkRepeats()
	empty := 0
	for _, c := range grids[0] {
		if c.Err == "" && c.N == 0 {
			empty++
		}
	}
	out.extra["assess.empty_cells"] = metric{float64(empty), "count", 1}
	if tr != nil {
		out.spans = tr.selfTimes()
	}
	if o.goldenOut != "" {
		if err := recordGolden(o.goldenOut, name, o.seed, grids[0], nil); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func runTrapd(o options) (*outcome, error) {
	out := &outcome{extra: map[string]metric{}, warmFrom: 2}
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	base, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	// setUp times one NewServer. Only the last of the first setupSamples
	// servers is kept and serves the whole run; after every round one more
	// is built and closed while the kept one is idle, so the set-up
	// samples span the run, as they do offline, and setup_s does not depend
	// on a few seconds at its start.
	setUp := func(t *tracer, id int64, round int) (*trapd, error) {
		sp := t.begin(id, 0, round, "suite")
		t0 := time.Now()
		td, err := newTrapd(base, dataSeed)
		out.setup = append(out.setup, time.Since(t0).Seconds())
		t.end(sp)
		if err != nil {
			return nil, fmt.Errorf("starting trapd: %w", err)
		}
		return td, nil
	}
	var td *trapd
	for i := 0; i < setupSamples; i++ {
		t, err := setUp(tr, int64(-1-i), -1)
		if err != nil {
			return nil, err
		}
		if i < setupSamples-1 {
			if err := t.close(); err != nil {
				return nil, err
			}
			continue
		}
		td = t
	}
	e := td.srv.Suite("tpch").E
	var runs []jobRun
	start := time.Now()
	for round := 0; keepGoing(o, start, out.rounds, 4); round++ {
		t := tracerFor(tr, round)
		rs := t.begin(int64(round)*1_000_000, 0, round, "round")
		var rr []jobRun
		st, err := measureRound(e, td.reg, t != nil, func() { rr = td.runRound(clientMixes(o.seed, round), t, round, rs) })
		t.end(rs)
		if err == nil {
			var extra *trapd
			if extra, err = setUp(t, int64(round)*1_000_000+999_999, round); err == nil {
				err = extra.close()
			}
		}
		if err != nil {
			td.close()
			return nil, err
		}
		out.rounds = append(out.rounds, st)
		runs = append(runs, rr...)
	}
	if err := td.close(); err != nil {
		return nil, fmt.Errorf("stopping trapd: %w", err)
	}

	var submit, wait, exec []float64
	empty := 0
	for _, r := range runs {
		out.ops++
		if r.Status != "done" {
			continue
		}
		out.opMS = append(out.opMS, r.LatencyMS)
		submit = append(submit, r.SubmitMS)
		wait = append(wait, r.QueueWaitMS)
		exec = append(exec, r.ExecMS)
		if r.Round == 0 && r.Result.Workloads == 0 {
			empty++
		}
	}
	out.extra["service.submit_ms"] = metric{median(submit), "ms", len(submit)}
	out.extra["service.queue_wait_ms"] = metric{median(wait), "ms", len(wait)}
	out.extra["service.exec_ms"] = metric{median(exec), "ms", len(exec)}
	out.extra["assess.empty_cells"] = metric{float64(empty), "count", 1}

	golds, err := loadGoldens(goldensJSON)
	if err != nil {
		return nil, err
	}
	out.verdict = checkJobs(golds.Jobs, runs)
	out.checkRepeats()
	if tr != nil {
		out.spans = tr.selfTimes()
	}
	if o.goldenOut != "" {
		if err := recordGolden(o.goldenOut, o.workload, o.seed, nil, runs); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// spanNames are the benchmark-side spans whose self time is reported.
var spanNames = []string{"suite", "round", "advisor", "advisor_build", "cell", "method_build", "measure",
	"job", "submit", "poll"}

// cpuPackages are the layers the traced run's CPU profile is split into.
var cpuPackages = []string{"engine", "nn", "core", "advisor", "gbdt", "sqlx", "workload"}

// metrics computes every metric of the run, end-to-end and per-layer.
func (out *outcome) metrics() map[string]metric {
	m := map[string]metric{}
	n := len(out.rounds)
	// The round medians skip the warm-up rounds before out.warmFrom (on
	// trapd-jobs, the rounds that pretrain and fill the plan cache), so
	// they do not depend on how many rounds fit in the run.
	var walls, cpus, allocs, peaks []float64
	var wallSum float64
	for i, r := range out.rounds {
		wallSum += r.wall
		if i < out.warmFrom {
			continue
		}
		walls, cpus, allocs = append(walls, r.wall), append(cpus, r.cpu), append(allocs, r.allocMB)
		peaks = append(peaks, r.peakHeapMB)
	}
	warm := len(walls)
	m["setup_s"] = metric{median(out.setup), "s", len(out.setup)}
	m["wall_s"] = metric{median(walls), "s", warm}
	m["cpu_s"] = metric{median(cpus), "s", warm}
	m["alloc_mb"] = metric{median(allocs), "MB", warm}
	m["peak_heap_mb"] = metric{median(peaks), "MB", warm}
	m["ops_per_s"] = metric{ratio(float64(out.ops), wallSum), "1/s", out.ops}
	m["op_p50_ms"] = metric{quantile(out.opMS, 0.5), "ms", len(out.opMS)}
	m["op_p90_ms"] = metric{quantile(out.opMS, 0.9), "ms", len(out.opMS)}

	for _, rm := range roundMetrics {
		vals := make([]float64, 0, n)
		for _, r := range out.rounds {
			vals = append(vals, r.layers[rm.name])
		}
		m[rm.name] = metric{median(vals), rm.unit, n}
	}
	for name, v := range out.extra {
		m[name] = v
	}
	for _, k := range []string{"service.submit_ms", "service.queue_wait_ms", "service.exec_ms"} {
		if _, ok := m[k]; !ok {
			m[k] = metric{0, "ms", 0}
		}
	}
	m["fail_ratio"] = metric{ratio(float64(out.verdict.failed), float64(out.verdict.attempted)), "ratio", out.verdict.attempted}

	// Traced-run metrics: span self times, the CPU split, tracing overhead.
	var traced, plain []float64
	var pkgNS = map[string]int64{}
	var totalNS int64
	tracedRounds := 0
	for i, r := range out.rounds {
		if r.traced {
			tracedRounds++
			for k, v := range r.cpuPkg {
				pkgNS[k] += v
			}
			totalNS += r.cpuTotal
		}
		switch {
		case i < out.warmFrom:
		case r.traced:
			traced = append(traced, r.wall)
		default:
			plain = append(plain, r.wall)
		}
	}
	self := map[string]float64{}
	count := map[string]int{}
	for _, s := range out.spans {
		self[s.Name] += s.Self
		count[s.Name]++
	}
	for _, name := range spanNames {
		// Set-up spans are reported per set-up, the rest per traced round.
		den := float64(tracedRounds)
		if name == "suite" {
			den = float64(count[name])
		}
		m["self."+name+"_s"] = metric{ratio(self[name], den), "s", count[name]}
	}
	var attributed int64
	for _, p := range cpuPackages {
		attributed += pkgNS[p]
		m[p+".cpu_share"] = metric{ratio(float64(pkgNS[p]), float64(totalNS)), "ratio", tracedRounds}
	}
	m["other.cpu_share"] = metric{ratio(float64(totalNS-attributed), float64(totalNS)), "ratio", tracedRounds}
	overhead := 0.0
	if len(traced) > 0 && len(plain) > 0 {
		overhead = median(traced)/median(plain) - 1
	}
	m["trace.overhead_ratio"] = metric{overhead, "ratio", len(traced) + len(plain)}
	return m
}
