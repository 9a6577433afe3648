package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"github.com/trap-repro/trap/internal/engine"
	"github.com/trap-repro/trap/internal/nn"
	"github.com/trap-repro/trap/internal/obs"
)

// metric is one reported value with its unit and the number of samples
// it summarizes.
type metric struct {
	Value float64
	Unit  string
	N     int
}

// declared is one metric entry of BENCHMARK.json.
type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// manifest is the part of BENCHMARK.json the benchmark reads: the metric
// names it must print, in order.
type manifest struct {
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &m, nil
}

// pick selects the declared metrics out of the measured ones. Every
// declared metric must have been measured with the declared unit, and
// every measured metric must be declared in one of the two lists, so a
// printed name always exists in BENCHMARK.json.
func (m *manifest) pick(measured map[string]metric, traced bool) ([]declared, error) {
	known := map[string]string{}
	for _, d := range append(append([]declared(nil), m.EndToEnd...), m.PerLayer...) {
		known[d.Name] = d.Unit
	}
	for name, v := range measured {
		unit, ok := known[name]
		if !ok {
			return nil, fmt.Errorf("metric %q is measured but not declared in BENCHMARK.json", name)
		}
		if unit != v.Unit {
			return nil, fmt.Errorf("metric %q has unit %q, BENCHMARK.json says %q", name, v.Unit, unit)
		}
	}
	list := m.EndToEnd
	if traced {
		list = m.PerLayer
	}
	for _, d := range list {
		if _, ok := measured[d.Name]; !ok {
			return nil, fmt.Errorf("metric %q is declared in BENCHMARK.json but was not measured", d.Name)
		}
	}
	return list, nil
}

// counters is a snapshot of every cumulative counter and gauge the
// benchmark reads from the layers' public accessors. Per-round deltas of
// two snapshots give the per-layer metrics.
type counters map[string]float64

// obsNames are the obs.Default() series the per-layer metrics use.
var obsNames = []string{
	"assess_method_build_seconds_sum",
	"trap_pretrain_epoch_seconds_sum",
	"trap_rl_epoch_seconds_sum",
	"trap_rl_rollout_seconds_sum",
	"trap_rl_rollouts_total",
	"engine_plan_seconds_sum",
	"engine_whatif_calls_total",
	"engine_truecost_calls_total",
	"assess_advisor_train_seconds_sum",
	"advisor_recommend_seconds_sum",
	"advisor_recommend_total",
	"assess_measure_seconds_sum",
	"assess_pairs_total",
	"assess_pairs_nonsargable_total",
	"trap_workload_utility_evals_total",
	"trap_workload_cost_evals_total",
}

// serviceNames are the trapd registry series (absent offline).
var serviceNames = []string{
	"trapd_checkpoints_saved_total",
	"trapd_joblog_appends_total",
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
}

// snapshot reads the counters. e is the engine whose plan cache the
// workload uses; svc is the trapd registry (nil offline).
func snapshot(e *engine.Engine, svc *obs.Registry) counters {
	c := counters{}
	vals := obs.Default().Values()
	for _, n := range obsNames {
		c[n] = vals[n]
	}
	if svc != nil {
		sv := svc.Values()
		for _, n := range serviceNames {
			c[n] = sv[n]
		}
	}
	st := e.CacheStats()
	c["cache_entries"] = float64(st.Entries)
	c["cache_hits"] = float64(st.Hits)
	c["cache_misses"] = float64(st.Misses)
	c["cache_dedup"] = float64(st.SingleflightDedup)
	calls, flops := nn.GEMMStats()
	c["gemm_calls"], c["gemm_flops"] = float64(calls), float64(flops)
	hits, misses := nn.ArenaStats()
	c["arena_hits"], c["arena_misses"] = float64(hits), float64(misses)
	c["arena_retained"] = float64(nn.ArenaRetainedBytes())
	for k, v := range readRuntime(runtimeNames...) {
		c[k] = v
	}
	c["cpu"] = processCPU().Seconds()
	return c
}

// readRuntime reads runtime/metrics values as float64.
func readRuntime(names ...string) map[string]float64 {
	samples := make([]metrics.Sample, len(names))
	for i, n := range names {
		samples[i].Name = n
	}
	metrics.Read(samples)
	out := make(map[string]float64, len(names))
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[s.Name] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[s.Name] = s.Value.Float64()
		}
	}
	return out
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// delta returns after-before for every key.
func delta(before, after counters) counters {
	d := counters{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// roundMetric is one per-layer metric computed per round from the
// round's counter delta d and its end snapshot e.
type roundMetric struct {
	name, unit string
	value      func(d, e counters) float64
}

func deltaOf(key string) func(d, e counters) float64 {
	return func(d, _ counters) float64 { return d[key] }
}

func endOf(key string, div float64) func(d, e counters) float64 {
	return func(_, e counters) float64 { return e[key] / div }
}

func ratioOf(num string, den ...string) func(d, e counters) float64 {
	return func(d, _ counters) float64 {
		var sum float64
		for _, k := range den {
			sum += d[k]
		}
		return ratio(d[num], sum)
	}
}

var roundMetrics = []roundMetric{
	{"core.method_build_s", "s", deltaOf("assess_method_build_seconds_sum")},
	{"core.pretrain_s", "s", deltaOf("trap_pretrain_epoch_seconds_sum")},
	{"core.rl_epoch_s", "s", deltaOf("trap_rl_epoch_seconds_sum")},
	{"core.rollout_s", "s", deltaOf("trap_rl_rollout_seconds_sum")},
	{"core.rollouts", "count", deltaOf("trap_rl_rollouts_total")},
	{"nn.gemm_calls", "count", deltaOf("gemm_calls")},
	{"nn.gemm_flops", "count", deltaOf("gemm_flops")},
	{"nn.arena_hit_ratio", "ratio", ratioOf("arena_hits", "arena_hits", "arena_misses")},
	{"nn.arena_retained_mb", "MB", endOf("arena_retained", 1e6)},
	{"engine.plan_s", "s", deltaOf("engine_plan_seconds_sum")},
	// Plan builds: misses that joined another goroutine's build are not.
	{"engine.plan_misses", "count", func(d, _ counters) float64 { return d["cache_misses"] - d["cache_dedup"] }},
	{"engine.plan_hit_ratio", "ratio", ratioOf("cache_hits", "cache_hits", "cache_misses")},
	{"engine.whatif_calls", "count", deltaOf("engine_whatif_calls_total")},
	{"engine.truecost_calls", "count", deltaOf("engine_truecost_calls_total")},
	{"engine.cache_entries", "count", endOf("cache_entries", 1)},
	{"engine.dedup", "count", deltaOf("cache_dedup")},
	{"advisor.build_s", "s", deltaOf("assess_advisor_train_seconds_sum")},
	{"advisor.recommend_s", "s", deltaOf("advisor_recommend_seconds_sum")},
	{"advisor.recommend_calls", "count", deltaOf("advisor_recommend_total")},
	{"assess.measure_s", "s", deltaOf("assess_measure_seconds_sum")},
	{"assess.pairs", "count", deltaOf("assess_pairs_total")},
	{"assess.sargable_ratio", "ratio", func(d, _ counters) float64 {
		return 1 - ratio(d["assess_pairs_nonsargable_total"], d["assess_pairs_total"])
	}},
	{"workload.utility_evals", "count", deltaOf("trap_workload_utility_evals_total")},
	{"workload.cost_evals", "count", deltaOf("trap_workload_cost_evals_total")},
	{"runtime.gc_cpu_share", "ratio", func(d, _ counters) float64 {
		return ratio(d["/cpu/classes/gc/total:cpu-seconds"],
			d["/cpu/classes/total:cpu-seconds"]-d["/cpu/classes/idle:cpu-seconds"])
	}},
	{"runtime.gc_cycles", "count", deltaOf("/gc/cycles/total:gc-cycles")},
	{"service.checkpoints", "count", deltaOf("trapd_checkpoints_saved_total")},
	{"joblog.appends", "count", deltaOf("trapd_joblog_appends_total")},
}

// layerMetrics computes every roundMetric of one round.
func layerMetrics(d, end counters) map[string]float64 {
	out := make(map[string]float64, len(roundMetrics))
	for _, m := range roundMetrics {
		out[m.name] = m.value(d, end)
	}
	return out
}

// heapPeak samples the live heap (as of the last GC) until stopped and
// keeps the maximum: the most memory the workload needed to retain,
// which unlike the momentary heap size does not depend on when the
// sampler happens to look in a GC cycle.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	max  float64 // written by the sampler, read after done is closed
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	// The sample is allocated once and read in place, so the sampler
	// allocates nothing during the round it measures.
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(live)
			h.max = math.Max(h.max, float64(live[0].Value.Uint64()))
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// end stops the sampler, waits for it, and returns the peak in bytes.
func (h *heapPeak) end() float64 {
	close(h.stop)
	<-h.done
	return h.max
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks (the same rule as Python's statistics "inclusive").
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
