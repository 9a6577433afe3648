// Package obs is a stdlib-only observability layer for the TRAP system:
// atomic counters and gauges, streaming histograms with quantile
// estimates, callback gauges for cheaply-derived values (cache sizes, hit
// ratios), and a process-wide registry with a text exposition format
// served by trapd's GET /metrics.
//
// Metrics are get-or-create by name, so hot paths keep a package-level
// pointer and pay one atomic op per event:
//
//	var hits = obs.Default().Counter("engine_plan_cache_hits_total")
//	...
//	hits.Inc()
//
// Durations are recorded through Span:
//
//	defer obs.StartSpan(planSeconds).End()
//
// All types are safe for concurrent use.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic float64 that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add applies a delta with a CAS loop.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram bucket layout: geometric buckets with 8 buckets per power of
// two, spanning [2^-32, 2^32). That covers nanosecond-scale spans up to
// multi-hour ones (values are typically seconds) with <9% relative error
// per bucket, in a fixed 520-slot array.
const (
	histBucketsPerPow2 = 8
	histMinPow2        = -32
	histMaxPow2        = 32
	histBuckets        = (histMaxPow2 - histMinPow2) * histBucketsPerPow2
)

// Histogram is a streaming histogram over positive float64 values with
// quantile estimation. Zero and negative observations land in a dedicated
// underflow bucket; values beyond the top bucket are clamped into it. The
// exact min, max, sum and count are tracked alongside the buckets.
//
// Observations recorded with ObserveExemplar additionally pin an
// exemplar — typically a trace ID — on the bucket they land in, so the
// exposition can link a slow bucket back to the request that filled it.
type Histogram struct {
	mu        sync.Mutex
	count     int64
	sum       float64
	min, max  float64
	under     int64 // v <= 0 or below the smallest bucket
	buckets   [histBuckets]int64
	exemplars map[int]Exemplar // lazily allocated, keyed by bucket index
}

// Exemplar ties one observation to the trace that produced it.
type Exemplar struct {
	Value   float64
	TraceID string
	Time    time.Time
}

// bucketIndex maps a positive value to its bucket, or -1 for underflow.
func bucketIndex(v float64) int {
	log2 := math.Log2(v)
	i := int(math.Floor((log2 - histMinPow2) * histBucketsPerPow2))
	if i < 0 {
		return -1
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// bucketValue returns the geometric midpoint of bucket i.
func bucketValue(i int) float64 {
	lo := float64(i)/histBucketsPerPow2 + histMinPow2
	hi := float64(i+1)/histBucketsPerPow2 + histMinPow2
	return math.Exp2((lo + hi) / 2)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	if v <= 0 {
		h.under++
		return
	}
	if i := bucketIndex(v); i >= 0 {
		h.buckets[i]++
	} else {
		h.under++
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveExemplar records a value and, when traceID is non-empty, pins
// it as the exemplar of the bucket it lands in (the last exemplar per
// bucket wins). An empty traceID is a plain Observe.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.Observe(v)
	if traceID == "" || v <= 0 {
		return
	}
	i := bucketIndex(v)
	if i < 0 {
		return
	}
	h.mu.Lock()
	if h.exemplars == nil {
		h.exemplars = map[int]Exemplar{}
	}
	h.exemplars[i] = Exemplar{Value: v, TraceID: traceID, Time: time.Now()}
	h.mu.Unlock()
}

// Exemplars snapshots the histogram's per-bucket exemplars, keyed by
// bucket index.
func (h *Histogram) Exemplars() map[int]Exemplar {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[int]Exemplar, len(h.exemplars))
	for i, e := range h.exemplars {
		out[i] = e
	}
	return out
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the mean observed value (0 with no observations).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile estimates the q-quantile (q in [0, 1]) from the buckets.
// Estimates carry the bucket's relative error (<9%); the extremes are
// clamped to the exact observed min and max. Returns 0 with no data.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	seen := h.under
	if seen >= rank {
		return h.min
	}
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i]
		if seen >= rank {
			v := bucketValue(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Snapshot is a point-in-time histogram summary.
type Snapshot struct {
	Count              int64
	Sum, Mean          float64
	Min, Max           float64
	P50, P90, P95, P99 float64
}

// Snapshot summarizes the histogram.
func (h *Histogram) Snapshot() Snapshot {
	return Snapshot{
		Count: h.Count(), Sum: h.Sum(), Mean: h.Mean(),
		Min: h.Quantile(0), Max: h.Quantile(1),
		P50: h.Quantile(0.50), P90: h.Quantile(0.90),
		P95: h.Quantile(0.95), P99: h.Quantile(0.99),
	}
}

// Span times one operation into a histogram.
type Span struct {
	h     *Histogram
	start time.Time
}

// StartSpan begins timing; record with End. A nil histogram yields a
// no-op span.
func StartSpan(h *Histogram) Span { return Span{h: h, start: time.Now()} }

// End records the elapsed time in seconds and returns it.
func (s Span) End() time.Duration {
	d := time.Since(s.start)
	if s.h != nil {
		s.h.ObserveDuration(d)
	}
	return d
}

// EndExemplar is End with an exemplar: when traceID is non-empty the
// observation's bucket is linked back to that trace in the exposition.
func (s Span) EndExemplar(traceID string) time.Duration {
	d := time.Since(s.start)
	if s.h != nil {
		s.h.ObserveExemplar(d.Seconds(), traceID)
	}
	return d
}

// Registry is a named collection of metrics. Metrics are created on
// first use and live for the life of the registry.
//
// A registry enforces a hard cardinality cap: once limit distinct
// series exist, further creations return a detached (never-exposed)
// metric and the Dropped counter grows, so a bug that interpolates
// unbounded label values into metric names degrades to dropped series
// instead of unbounded registry memory and exposition size.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() float64
	hists      map[string]*Histogram
	help       map[string]string
	limit      int
	dropped    atomic.Int64
}

// DefaultMetricLimit is the registry cardinality cap when SetLimit was
// never called: far above legitimate use (the whole system registers a
// few dozen families), low enough to stop unbounded label growth.
const DefaultMetricLimit = 4096

// NewRegistry builds an empty registry with the default cardinality cap.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		gaugeFuncs: map[string]func() float64{},
		hists:      map[string]*Histogram{},
		help:       map[string]string{},
		limit:      DefaultMetricLimit,
	}
}

// SetLimit replaces the cardinality cap (n <= 0 restores the default).
// Existing metrics are never evicted; the cap gates creation only.
func (r *Registry) SetLimit(n int) {
	if n <= 0 {
		n = DefaultMetricLimit
	}
	r.mu.Lock()
	r.limit = n
	r.mu.Unlock()
}

// Dropped reports how many metric creations the cardinality cap
// refused.
func (r *Registry) Dropped() int64 { return r.dropped.Load() }

// size counts every registered series. Caller holds r.mu.
func (r *Registry) size() int {
	return len(r.counters) + len(r.gauges) + len(r.gaugeFuncs) + len(r.hists)
}

// full reports (and tallies) a creation refused by the cardinality cap.
// Caller holds r.mu for writing.
func (r *Registry) full() bool {
	if r.size() < r.limit {
		return false
	}
	r.dropped.Add(1)
	return true
}

// Describe attaches a # HELP string to a metric family for the
// Prometheus exposition. The name is the family (label-free) name.
func (r *Registry) Describe(name, help string) {
	r.mu.Lock()
	r.help[name] = help
	r.mu.Unlock()
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	if !r.full() {
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	if !r.full() {
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers (or replaces) a callback gauge evaluated at
// exposition time — for derived values like cache sizes and hit ratios.
// The callback must be safe for concurrent use.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	if _, ok := r.gaugeFuncs[name]; ok || !r.full() {
		r.gaugeFuncs[name] = fn
	}
	r.mu.Unlock()
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	h = &Histogram{}
	if !r.full() {
		r.hists[name] = h
	}
	return h
}

// Values dumps every metric as a flat name → value map: counters and
// gauges directly, histograms as _count/_sum/_p99 triples — a snapshot
// that two points in time can be diffed over.
func (r *Registry) Values() map[string]float64 {
	r.mu.RLock()
	out := make(map[string]float64, r.size())
	for n, c := range r.counters {
		out[n] = float64(c.Value())
	}
	for n, g := range r.gauges {
		out[n] = g.Value()
	}
	fns := make(map[string]func() float64, len(r.gaugeFuncs))
	for n, fn := range r.gaugeFuncs {
		fns[n] = fn
	}
	type histEntry struct {
		name string
		h    *Histogram
	}
	hists := make([]histEntry, 0, len(r.hists))
	for n, h := range r.hists {
		hists = append(hists, histEntry{n, h})
	}
	r.mu.RUnlock()
	// Callbacks and histogram locks are taken outside the registry lock.
	for n, fn := range fns {
		out[n] = fn()
	}
	for _, he := range hists {
		out[he.name+"_count"] = float64(he.h.Count())
		out[he.name+"_sum"] = he.h.Sum()
		out[he.name+"_p99"] = he.h.Quantile(0.99)
	}
	return out
}

// WriteText renders every metric in a Prometheus-style one-line-per-value
// text format, sorted by name. Histograms expand into _count, _sum and
// quantile lines.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.RLock()
	type line struct {
		name string
		val  float64
		asI  bool
	}
	var lines []line
	for n, c := range r.counters {
		lines = append(lines, line{n, float64(c.Value()), true})
	}
	for n, g := range r.gauges {
		lines = append(lines, line{n, g.Value(), false})
	}
	fns := make(map[string]func() float64, len(r.gaugeFuncs))
	for n, fn := range r.gaugeFuncs {
		fns[n] = fn
	}
	for n, h := range r.hists {
		s := h.Snapshot()
		lines = append(lines,
			line{n + "_count", float64(s.Count), true},
			line{n + "_sum", s.Sum, false},
			line{n + `{q="0.5"}`, s.P50, false},
			line{n + `{q="0.9"}`, s.P90, false},
			line{n + `{q="0.95"}`, s.P95, false},
			line{n + `{q="0.99"}`, s.P99, false},
			line{n + "_max", s.Max, false},
		)
	}
	r.mu.RUnlock()
	// Callback gauges are evaluated outside the registry lock so they may
	// themselves take locks (e.g. an engine's cache mutex).
	for n, fn := range fns {
		lines = append(lines, line{n, fn(), false})
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i].name < lines[j].name })
	for _, l := range lines {
		var err error
		if l.asI {
			_, err = fmt.Fprintf(w, "%s %d\n", l.name, int64(l.val))
		} else {
			_, err = fmt.Fprintf(w, "%s %g\n", l.name, l.val)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
