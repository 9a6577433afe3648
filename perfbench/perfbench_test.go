package main

import (
	"bytes"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"strconv"
	"testing"
	"time"

	"github.com/trap-repro/trap/internal/assess"
	"github.com/trap-repro/trap/internal/core"
)

// goldenSeeds are the seeds goldens.json must cover: the default and a
// held-out one.
var goldenSeeds = []string{"42", "7"}

func mustGoldens(t *testing.T) *goldenSet {
	t.Helper()
	g, err := loadGoldens(goldensJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range goldenSeeds {
		for _, w := range []string{"fig6-tpch", "advisors-tpcds"} {
			if len(g.Cells[w][seed]) == 0 {
				t.Fatalf("goldens.json has no %s cells for seed %s", w, seed)
			}
		}
	}
	// Every recorded trapd state covers the whole mix, and the default
	// and held-out seeds each settled in one of them.
	var specs []string
	for _, s := range clientMixes(42, 0) {
		for _, j := range s {
			specs = append(specs, j.key())
		}
	}
	seen := map[string]bool{}
	for i, st := range g.Jobs {
		for _, k := range specs {
			if _, ok := st.Specs[k]; !ok || len(st.Specs) != len(specs) {
				t.Fatalf("trapd state %d: no result for %s or extra specs", i+1, k)
			}
		}
		for _, seed := range st.Seeds {
			seen[strconv.FormatInt(seed, 10)] = true
		}
	}
	for _, seed := range goldenSeeds {
		if !seen[seed] {
			t.Fatalf("goldens.json has no trapd-jobs state recorded at seed %s", seed)
		}
	}
	return g
}

func TestCheckCellsRejectsMutatedGolden(t *testing.T) {
	g := mustGoldens(t)
	for w, bySeed := range g.Cells {
		for seed, golden := range bySeed {
			if v := checkCells(golden, [][]cell{golden, golden}, len(golden)); len(v.problems) != 0 || v.failed != 0 {
				t.Fatalf("%s seed %s: golden grid rejected: %v", w, seed, v.problems)
			}
			for _, mutate := range []func(c *cell){
				func(c *cell) { c.IUDR += 1e-12 },
				func(c *cell) { c.N++ },
				func(c *cell) { c.Advisor = "other" },
				func(c *cell) { c.Err = "boom" },
			} {
				got := append([]cell(nil), golden...)
				mutate(&got[len(got)/2])
				v := checkCells(golden, [][]cell{got}, len(golden))
				if len(v.problems) == 0 || v.failed != 1 {
					t.Errorf("%s seed %s: mutated cell accepted (failed=%d)", w, seed, v.failed)
				}
			}
		}
	}
}

// goldenRuns rebuilds the job runs of a trapd-jobs run at seed in which
// every job returned its result in state st: three passes through the mix.
func goldenRuns(seed int64, st jobState) []jobRun {
	var runs []jobRun
	for round := 0; round < 3; round++ {
		for c, specs := range clientMixes(seed, round) {
			for i, spec := range specs {
				runs = append(runs, jobRun{Round: round, Client: c, Index: i, Spec: spec,
					Status: "done", Result: st.Specs[spec.key()]})
			}
		}
	}
	return runs
}

func TestCheckJobsRejectsMutatedGolden(t *testing.T) {
	g := mustGoldens(t)
	if len(g.Jobs) < 2 {
		t.Fatalf("%d recorded trapd states; the mutations below need two", len(g.Jobs))
	}
	for i, st := range g.Jobs {
		runs := goldenRuns(st.Seeds[0], st)
		if v := checkJobs(g.Jobs, runs); len(v.problems) != 0 || v.failed != 0 {
			t.Fatalf("state %d: golden jobs: problems %v, failed %d", i+1, v.problems, v.failed)
		}
		// A mutated golden result matches no state: the run fails, and
		// every job of that spec (one per pass) counts as failed.
		mutated := append([]jobState(nil), g.Jobs...)
		mutated[i].Specs = maps.Clone(st.Specs)
		key := runs[0].Spec.key()
		r := mutated[i].Specs[key]
		r.IUDR += 1e-12
		mutated[i].Specs[key] = r
		if v := checkJobs(mutated, runs); len(v.problems) == 0 || v.failed != 3 || len(v.notes) == 0 {
			t.Errorf("state %d: mutated golden %s: problems %v, failed %d, want a problem and 3 failed jobs",
				i+1, key, v.problems, v.failed)
		}
		// So does a change that moves one spec's result on every job,
		// consistently within the run.
		mut := append([]jobRun(nil), runs...)
		for j := range mut {
			if mut[j].Spec.key() == key {
				mut[j].Result.Pairs++
			}
		}
		if v := checkJobs(g.Jobs, mut); len(v.problems) == 0 {
			t.Errorf("state %d: consistently moved %s accepted", i+1, key)
		}
		// A first-pass job off its state is a counted divergence; a
		// later job off the rest of the run is a failed check.
		mut = append([]jobRun(nil), runs...)
		mut[0].Result.IUDR += 0.5
		if v := checkJobs(g.Jobs, mut); len(v.problems) != 0 || v.failed != 1 {
			t.Errorf("state %d: first-pass divergence: problems %v, failed %d", i+1, v.problems, v.failed)
		}
		mut = append([]jobRun(nil), runs...)
		mut[len(mut)-1].Result.IUDR += 0.5
		if v := checkJobs(g.Jobs, mut); len(v.problems) == 0 {
			t.Errorf("state %d: inconsistent later job accepted", i+1)
		}
		mut = append([]jobRun(nil), runs...)
		mut[len(mut)-1].Status, mut[len(mut)-1].Err = "failed", "boom"
		if v := checkJobs(g.Jobs, mut); len(v.problems) == 0 {
			t.Errorf("state %d: failed job accepted", i+1)
		}
	}
}

func TestRecordGoldenMergesStates(t *testing.T) {
	g := mustGoldens(t)
	path := filepath.Join(t.TempDir(), "goldens.json")
	for _, seed := range []int64{5, 6, 5} {
		if err := recordGolden(path, "trapd-jobs", seed, nil, goldenRuns(seed, g.Jobs[0])); err != nil {
			t.Fatal(err)
		}
	}
	if err := recordGolden(path, "trapd-jobs", 8, nil, goldenRuns(8, g.Jobs[1])); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loadGoldens(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Jobs) != 2 || !reflect.DeepEqual(got.Jobs[0].Seeds, []int64{5, 6}) ||
		!reflect.DeepEqual(got.Jobs[1].Seeds, []int64{8}) ||
		!reflect.DeepEqual(got.Jobs[0].Specs, g.Jobs[0].Specs) {
		t.Fatalf("recorded states: %+v", got.Jobs)
	}
}

func TestCheckJobsWithoutGolden(t *testing.T) {
	spec := jobSpec{"Extend", "TRAP"}
	steady := jobResult{IUDR: 0.25, Workloads: 5, Pairs: 6}
	runs := []jobRun{
		{Round: 0, Spec: spec, Status: "done", Result: jobResult{IUDR: 0.28, Workloads: 5, Pairs: 6}},
		{Round: 1, Spec: spec, Status: "done", Result: steady},
		{Round: 2, Spec: spec, Status: "done", Result: steady},
	}
	if v := checkJobs(nil, runs); len(v.problems) != 0 || v.failed != 1 {
		t.Fatalf("first-pass divergence: problems %v, failed %d, want none and 1", v.problems, v.failed)
	}
	runs = append(runs, jobRun{Round: 3, Spec: spec, Status: "done", Result: jobResult{IUDR: 0.3, Workloads: 5, Pairs: 6}})
	if v := checkJobs(nil, runs); len(v.problems) != 1 {
		t.Fatalf("later divergence: problems %v, want 1", v.problems)
	}
}

func TestSeedChangesWorkloads(t *testing.T) {
	for _, g := range []grid{fig6TPCH, advisorsTPCDS} {
		a := g.plan(rand.New(rand.NewSource(42)))
		if !reflect.DeepEqual(a, g.plan(rand.New(rand.NewSource(42)))) {
			t.Errorf("%s: the same seed gave different plans", g.dataset)
		}
		if reflect.DeepEqual(a, g.plan(rand.New(rand.NewSource(43)))) {
			t.Errorf("%s: seeds 42 and 43 gave the same plan", g.dataset)
		}
	}
	if !reflect.DeepEqual(clientMixes(42, 0), clientMixes(42, 0)) {
		t.Error("trapd: the same seed gave different job sequences")
	}
	if reflect.DeepEqual(clientMixes(42, 0), clientMixes(43, 0)) {
		t.Error("trapd: seeds 42 and 43 gave the same job sequences")
	}
}

// TestGridMatchesFig6 checks that the benchmark's grid loop computes
// what assess.Fig6 does, for one advisor in Fig. 6 order.
func TestGridMatchesFig6(t *testing.T) {
	g := fig6TPCH
	g.advisors = []string{"Extend"}
	s, err := g.newSuite()
	if err != nil {
		t.Fatal(err)
	}
	got, _ := assessGrid(s, g.plan(nil), nil, 0, 0)
	s2, err := g.newSuite()
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := assess.Fig6([]*assess.Suite{s2}, g.advisors, g.methods, core.AllConstraints)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cells, want %d", len(got), len(want))
	}
	for i, w := range want {
		c := got[i]
		if c.Err != "" || c.Constraint != w.Constraint.String() || c.Advisor != w.Advisor ||
			c.Method != w.Method || c.IUDR != w.IUDR || c.N != w.N {
			t.Errorf("cell %d: got %+v, want %+v", i, c, w)
		}
	}
}

// TestPrintedMetricsDeclared runs the cheapest workload for one round,
// untraced and traced, and checks that every metric it measures is
// declared in BENCHMARK.json with the same unit, and every declared one
// is measured.
func TestPrintedMetricsDeclared(t *testing.T) {
	man, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		out, err := runOffline(advisorsTPCDS, options{workload: "advisors-tpcds", seed: 42, traced: traced})
		if err != nil {
			t.Fatal(err)
		}
		if len(out.verdict.problems) != 0 {
			t.Fatalf("traced=%v: output check failed: %v", traced, out.verdict.problems)
		}
		if _, err := man.pick(out.metrics(), traced); err != nil {
			t.Errorf("traced=%v: %v", traced, err)
		}
		if traced && len(out.spans) == 0 {
			t.Error("traced run recorded no spans")
		}
	}
	// trapd-jobs reports the same names; its service metrics are real.
	out := &outcome{setup: []float64{1}, rounds: []roundStat{{layers: layerMetrics(counters{}, counters{})}},
		extra: map[string]metric{"service.submit_ms": {1, "ms", 1}, "service.queue_wait_ms": {1, "ms", 1},
			"service.exec_ms": {1, "ms", 1}, "assess.empty_cells": {0, "count", 1}}}
	for _, traced := range []bool{false, true} {
		if _, err := man.pick(out.metrics(), traced); err != nil {
			t.Errorf("trapd shape, traced=%v: %v", traced, err)
		}
	}
}

func TestCPUByPackage(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		if _, err := advisorsTPCDS.newSuite(); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	byPkg, total, err := cpuByPackage(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, ns := range byPkg {
		sum += ns
	}
	if total <= 0 || sum <= 0 || sum > total {
		t.Fatalf("total %d ns, attributed %d ns (%v)", total, sum, byPkg)
	}
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "job", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "submit", Start: 1, End: 3},
		{ID: 3, Parent: 1, Name: "poll", Start: 2, End: 4},
		{ID: 4, Parent: 1, Name: "poll", Start: 8, End: 12},
	}}
	spans := tr.selfTimes()
	want := []float64{10 - 3 - 2, 2, 2, 4}
	for i, s := range spans {
		if s.Self != want[i] {
			t.Errorf("span %s: self %v, want %v", s.Name, s.Self, want[i])
		}
	}
}
