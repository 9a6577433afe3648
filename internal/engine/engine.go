package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/trap-repro/trap/internal/faultinject"
	"github.com/trap-repro/trap/internal/obs"
	"github.com/trap-repro/trap/internal/schema"
	"github.com/trap-repro/trap/internal/sqlx"
	"github.com/trap-repro/trap/internal/stats"
	"github.com/trap-repro/trap/internal/trace"
)

// Process-wide engine metrics, aggregated across all Engine instances
// (per-instance numbers are available from Engine.CacheStats).
var (
	mWhatIfCalls  = obs.Default().Counter("engine_whatif_calls_total")
	mTrueCalls    = obs.Default().Counter("engine_truecost_calls_total")
	mCacheHits    = obs.Default().Counter("engine_plan_cache_hits_total")
	mCacheMisses  = obs.Default().Counter("engine_plan_cache_misses_total")
	mCacheEvicted = obs.Default().Counter("engine_plan_cache_evicted_total")
	mPlanSeconds  = obs.Default().Histogram("engine_plan_seconds")
	mBatchSecs    = obs.Default().Histogram("engine_cost_batch_seconds")
	mBatchQueries = obs.Default().Counter("engine_cost_batch_queries_total")
	mBatches      = obs.Default().Counter("engine_cost_batches_total")
)

// defaultCacheLimit bounds the plan cache; beyond it a fraction of the
// entries is evicted (never the whole cache).
const defaultCacheLimit = 400_000

// Engine is the simulated cost-based optimizer over a schema.
//
// # Concurrency
//
// An Engine is safe for concurrent use by multiple goroutines with no
// external locking: the schema and estimation-error profile are immutable
// after construction; the plan cache is sharded by key hash with one
// RWMutex per shard and per-shard singleflight (concurrent misses on the
// same (mode, config, query) key plan once and share the result); the
// memoized histogram map is guarded by its own RWMutex. Two goroutines
// that miss on the same histogram may both build it; the builds are
// deterministic per column so the duplicate write is benign. Cached
// *PlanNode values are shared across callers and MUST be treated as
// read-only; every path in this package builds fresh nodes before
// caching and never mutates a node after it is published (see PlanNode's
// immutability contract).
type Engine struct {
	schema *schema.Schema
	estErr stats.EstimationError

	// hists is keyed by the ColumnRef struct itself (comparable) so the
	// per-lookup key is free; building a "t.c" string here dominated the
	// selectivity path's allocation profile.
	histMu sync.RWMutex
	hists  map[sqlx.ColumnRef]stats.Histogram

	cache planCache

	// batchWorkers overrides the CostBatch/RuntimeBatch fan-out width;
	// 0 (the default) resolves to GOMAXPROCS at call time.
	batchWorkers atomic.Int64

	// inject, when non-nil, fires the engine.cost fault-injection point
	// on every QueryCost call (test/diagnostic configuration only).
	inject atomic.Pointer[injectorBox]
}

// injectorBox wraps the interface so it can live in an atomic.Pointer.
type injectorBox struct{ in faultinject.Injector }

// New builds an engine over the schema with the default estimation-error
// profile.
func New(s *schema.Schema) *Engine {
	return NewWithError(s, stats.DefaultEstimationError())
}

// NewWithError builds an engine whose "ANALYZE" statistics carry the
// given error profile — the knob behind the estimation-error ablation.
func NewWithError(s *schema.Schema, e stats.EstimationError) *Engine {
	eng := &Engine{
		schema: s,
		estErr: e,
		hists:  map[sqlx.ColumnRef]stats.Histogram{},
	}
	eng.cache.init(defaultCacheLimit)
	return eng
}

// CacheStats is a point-in-time view of one engine's plan cache,
// aggregated over its shards.
type CacheStats struct {
	Entries int
	Hits    uint64
	Misses  uint64
	Evicted uint64
	// Shards is the number of cache shards the totals were summed over.
	Shards int
	// SingleflightDedup counts misses that joined another goroutine's
	// in-flight build of the same key instead of planning again.
	SingleflightDedup uint64
}

// HitRatio returns hits/(hits+misses), or 0 before any lookup.
func (s CacheStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// CacheStats returns this engine's plan-cache statistics.
func (e *Engine) CacheStats() CacheStats {
	return e.cache.stats()
}

// SetCacheLimit bounds the plan cache at n entries (minimum one per
// shard, i.e. 32). Lowering the limit below the current size shrinks the
// cache immediately; at steady state crossing the bound evicts a
// fraction of each shard rather than the whole cache.
func (e *Engine) SetCacheLimit(n int) {
	if n < cacheShards {
		n = cacheShards
	}
	e.cache.setLimit(n)
}

// SetBatchWorkers bounds the worker pool CostBatch and RuntimeBatch fan
// out over. n <= 0 restores the default (GOMAXPROCS at call time); n == 1
// forces the sequential path. Safe to call concurrently with batches.
func (e *Engine) SetBatchWorkers(n int) {
	if n < 0 {
		n = 0
	}
	e.batchWorkers.Store(int64(n))
}

// BatchWorkers reports the resolved worker-pool width.
func (e *Engine) BatchWorkers() int {
	if n := int(e.batchWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Schema returns the engine's schema.
func (e *Engine) Schema() *schema.Schema { return e.schema }

// ClearCache drops all cached plans (histograms are kept).
func (e *Engine) ClearCache() {
	e.cache.clear()
}

// keyBuf is the reusable scratch for rendering one plan-cache key: the
// key bytes and the per-table index sort scratch. Batch paths hand one
// to each worker (par.ForEachWorker), single-query paths borrow one
// from keyBufPool, so steady-state key building allocates nothing.
type keyBuf struct {
	buf []byte
	ixs []schema.Index
}

var keyBufPool = sync.Pool{New: func() any { return new(keyBuf) }}

// planKey renders the cache key of (q, cfg, mode) into kb: the mode,
// the canonical query text and, per table the query references (in the
// query's stable table order), the sorted identities of the indexes cfg
// holds on that table. Indexes on tables the query never touches cannot
// affect its plan — plan() reads only the indexes cfg holds on the
// query's tables (scanPaths and bestJoin skip the rest) — so they are
// excluded: configurations that differ only in irrelevant indexes share
// one cache entry instead of each missing, which is what lets the
// advisor's what-if loop (which probes hundreds of configurations
// against the same queries) run mostly on cache hits.
// It also returns the key's shard hash, continued from the memoized
// hash of the query text so only the short mode/config suffix is
// re-hashed per call.
func planKey(kb *keyBuf, q *sqlx.Query, cfg schema.Config, mode Mode) ([]byte, uint64) {
	qa := analysisOf(q)
	b := kb.buf[:0]
	b = append(b, byte('0'+int(mode)))
	b = append(b, q.String()...)
	suffix := len(b)
	for _, t := range qa.tables {
		b = append(b, '|')
		ixs := kb.ixs[:0]
		for _, ix := range cfg {
			if ix.Table == t {
				ixs = append(ixs, ix)
			}
		}
		// Insertion sort: per-table subsets are tiny and this avoids the
		// sort.Slice interface allocation.
		for i := 1; i < len(ixs); i++ {
			for j := i; j > 0 && ixs[j].Less(ixs[j-1]); j-- {
				ixs[j], ixs[j-1] = ixs[j-1], ixs[j]
			}
		}
		for _, ix := range ixs {
			for _, c := range ix.Columns {
				b = append(b, c...)
				b = append(b, ',')
			}
			b = append(b, ';')
		}
		kb.ixs = ixs[:0]
	}
	kb.buf = b
	h := qa.textHash
	h ^= uint64(b[0]) // mode byte
	h *= 1099511628211
	return b, fnv1aSeed(h, b[suffix:])
}

// Plan returns the cheapest plan for q under the index configuration cfg,
// priced with the given statistics mode. Results are cached; the returned
// node is shared and must not be mutated.
func (e *Engine) Plan(q *sqlx.Query, cfg schema.Config, mode Mode) (*PlanNode, error) {
	kb := keyBufPool.Get().(*keyBuf)
	defer keyBufPool.Put(kb)
	return e.planCached(kb, q, cfg, mode)
}

// planCached looks the plan up in the sharded cache and, on a miss,
// builds it under singleflight: concurrent misses on the same key plan
// once and share the resulting node. The key is rendered into kb and
// only cloned to a heap string when a miss actually inserts it.
func (e *Engine) planCached(kb *keyBuf, q *sqlx.Query, cfg schema.Config, mode Mode) (*PlanNode, error) {
	key, hash := planKey(kb, q, cfg, mode)
	sh := e.cache.shardOf(hash)
	if p, ok := sh.lookup(hash, key); ok {
		return p, nil
	}
	return sh.do(hash, key, e.cache.shardLimit(), func() (*PlanNode, error) {
		sp := obs.StartSpan(mPlanSeconds)
		defer sp.End()
		return e.plan(q, cfg, mode)
	})
}

// SetInjector installs a fault injector on the engine's what-if costing
// path (nil disables injection, the production default).
func (e *Engine) SetInjector(in faultinject.Injector) {
	if in == nil {
		e.inject.Store(nil)
		return
	}
	e.inject.Store(&injectorBox{in: in})
}

// QueryCost returns the total cost of the cheapest plan for q. In
// ModeEstimated this is the engine's what-if interface — the call
// advisors are billed for.
func (e *Engine) QueryCost(q *sqlx.Query, cfg schema.Config, mode Mode) (float64, error) {
	kb := keyBufPool.Get().(*keyBuf)
	defer keyBufPool.Put(kb)
	return e.queryCost(kb, q, cfg, mode)
}

// queryCost is QueryCost with a caller-owned key buffer (batch paths
// keep one per worker).
func (e *Engine) queryCost(kb *keyBuf, q *sqlx.Query, cfg schema.Config, mode Mode) (float64, error) {
	if mode == ModeEstimated {
		mWhatIfCalls.Inc()
	} else {
		mTrueCalls.Inc()
	}
	if box := e.inject.Load(); box != nil {
		if err := faultinject.Fire(box.in, faultinject.PointEngineCost); err != nil {
			return 0, err
		}
	}
	p, err := e.planCached(kb, q, cfg, mode)
	if err != nil {
		return 0, err
	}
	return p.Cost, nil
}

// CostItem is one weighted query in a CostBatch call.
type CostItem struct {
	Q      *sqlx.Query
	Weight float64
}

// CostBatch prices a batch of weighted queries under one configuration
// and returns the weighted total. The per-query costing fans out over a
// bounded worker pool (see SetBatchWorkers); the weighted summation is
// performed in item order afterwards, so the parallel total is
// bit-identical to the sequential one. Cancellation is honored between
// queries, so a canceled assessment stops what-if costing at the next
// query boundary instead of draining the whole batch.
func (e *Engine) CostBatch(ctx context.Context, items []CostItem, cfg schema.Config, mode Mode) (float64, error) {
	ctx, tsp, finish := e.batchSpan(ctx, "engine.cost_batch", len(items))
	sp := obs.StartSpan(mBatchSecs)
	mBatches.Inc()
	mBatchQueries.Add(int64(len(items)))
	total, err := e.weightedBatch(ctx, items, cfg, mode, false)
	sp.EndExemplar(tsp.TraceID())
	finish(err)
	return total, err
}

// batchSpan opens the per-batch trace span of CostBatch/RuntimeBatch
// with the batch size attribute, and returns a finish function that
// stamps the span with the shard-cache and singleflight deltas the
// batch caused before ending it. On an un-traced context everything is
// a no-op (tsp is nil and finish does nothing), so the hot path pays no
// stats snapshots and no allocations.
func (e *Engine) batchSpan(ctx context.Context, name string, items int) (context.Context, *trace.Span, func(error)) {
	ctx, tsp := trace.Start(ctx, name)
	if tsp == nil {
		return ctx, nil, func(error) {}
	}
	tsp.Int("items", int64(items))
	tsp.Int("workers", int64(e.BatchWorkers()))
	before := e.cache.stats()
	return ctx, tsp, func(err error) {
		after := e.cache.stats()
		tsp.Int("cache_hits", int64(after.Hits-before.Hits))
		tsp.Int("cache_misses", int64(after.Misses-before.Misses))
		tsp.Int("singleflight_dedup", int64(after.SingleflightDedup-before.SingleflightDedup))
		tsp.Fail(err)
		tsp.End()
	}
}

// RuntimeCost is the stand-in for actual query runtime: the true-statistics
// cost with a small deterministic per-query execution noise.
func (e *Engine) RuntimeCost(q *sqlx.Query, cfg schema.Config) (float64, error) {
	kb := keyBufPool.Get().(*keyBuf)
	defer keyBufPool.Put(kb)
	return e.runtimeCost(kb, q, cfg)
}

func (e *Engine) runtimeCost(kb *keyBuf, q *sqlx.Query, cfg schema.Config) (float64, error) {
	c, err := e.queryCost(kb, q, cfg, ModeTrue)
	if err != nil {
		return 0, err
	}
	return c * stats.HashFactor("rt:"+q.String(), 0.05), nil
}

// RuntimeBatch is CostBatch over the runtime stand-in: the weighted
// runtime cost of the batch, fanned out over the same worker pool with
// the same deterministic in-order summation and cancellation behavior.
func (e *Engine) RuntimeBatch(ctx context.Context, items []CostItem, cfg schema.Config) (float64, error) {
	ctx, tsp, finish := e.batchSpan(ctx, "engine.runtime_batch", len(items))
	sp := obs.StartSpan(mBatchSecs)
	mBatches.Inc()
	mBatchQueries.Add(int64(len(items)))
	total, err := e.weightedBatch(ctx, items, cfg, ModeTrue, true)
	sp.EndExemplar(tsp.TraceID())
	finish(err)
	return total, err
}

// accessPath is a candidate scan of one base table.
type accessPath struct {
	node *PlanNode
	// orderedOn lists the column names (of the scanned table) the output
	// is sorted by; empty for unordered scans.
	orderedOn []string
}

// tableStatic is the mode- and configuration-independent per-table
// analysis of a query: predicate groups, required columns and join
// columns. It is memoized on the Query (see analysisOf) and shared
// read-only across plan calls, so it must never be mutated after
// construction.
type tableStatic struct {
	groups   []predGroup // single-table OR-groups on this table
	reqCols  map[string]bool
	predOps  int // predicate terms evaluated per row
	joinCols map[string]bool
}

// queryAnalysis is the memoized, engine-independent part of planning a
// query: everything derivable from the query text alone. Stored on the
// Query via sqlx.Query.SetPlanInfo so repeated plan calls (across modes
// and configurations) skip the re-analysis.
type queryAnalysis struct {
	tables    []string
	columns   []sqlx.ColumnRef
	statics   map[string]*tableStatic
	topGroups []predGroup // groups spanning several tables
	// validErr is q.Validate()'s result, so plan misses do not re-check
	// (and rebuild Query.Columns for) the same query.
	validErr error
	// textHash is the FNV-1a hash of the canonical query text, the seed
	// for plan-key shard hashing (so lookups only hash the short suffix).
	textHash uint64
}

// analysisOf returns the memoized analysis of q, computing and caching
// it on first use. The result is query-derived only (no schema or mode
// input), so it is safe to share across engines and goroutines.
func analysisOf(q *sqlx.Query) *queryAnalysis {
	if qa, ok := q.PlanInfo().(*queryAnalysis); ok {
		return qa
	}
	qa := &queryAnalysis{tables: q.Tables(), columns: q.Columns(), validErr: q.Validate(), textHash: fnv1aString(q.String())}
	qa.statics = make(map[string]*tableStatic, len(qa.tables))
	for _, t := range qa.tables {
		qa.statics[t] = &tableStatic{reqCols: map[string]bool{}, joinCols: map[string]bool{}}
	}
	for _, c := range qa.columns {
		if st := qa.statics[c.Table]; st != nil {
			st.reqCols[c.Column] = true
		}
	}
	for _, j := range q.Joins {
		if st := qa.statics[j.Left.Table]; st != nil {
			st.joinCols[j.Left.Column] = true
		}
		if st := qa.statics[j.Right.Table]; st != nil {
			st.joinCols[j.Right.Column] = true
		}
	}
	for _, g := range groupFilters(q) {
		t := g.onlyTable()
		if t == "" {
			qa.topGroups = append(qa.topGroups, g)
			continue
		}
		if st := qa.statics[t]; st != nil {
			st.groups = append(st.groups, g)
			st.predOps += len(g.preds)
		}
	}
	q.SetPlanInfo(qa)
	return qa
}

// tableInfo is the per-plan-call view of a table's analysis: the shared
// memoized static part plus the mode-dependent combined selectivity
// scanPaths fills in. Each plan call builds its own tableInfo values, so
// writing sel never races with other calls.
type tableInfo struct {
	*tableStatic
	sel float64 // combined selectivity of groups
}

// plan builds the cheapest plan without consulting the cache.
func (e *Engine) plan(q *sqlx.Query, cfg schema.Config, mode Mode) (*PlanNode, error) {
	qa := analysisOf(q)
	if qa.validErr != nil {
		return nil, qa.validErr
	}
	tables := qa.tables
	if len(tables) > 14 {
		return nil, fmt.Errorf("engine: too many tables (%d)", len(tables))
	}
	for _, t := range tables {
		if e.schema.Table(t) == nil {
			return nil, fmt.Errorf("engine: unknown table %s", t)
		}
	}
	for _, c := range qa.columns {
		if e.schema.Column(c) == nil {
			return nil, fmt.Errorf("engine: unknown column %s", c)
		}
	}

	infos := make(map[string]*tableInfo, len(tables))
	for _, t := range tables {
		infos[t] = &tableInfo{tableStatic: qa.statics[t], sel: 1}
	}
	topGroups := qa.topGroups

	// Desired output order for sort-avoidance: ORDER BY, or GROUP BY when
	// there is no ORDER BY (a sorted input enables GroupAggregate).
	desired := q.OrderBy
	if len(desired) == 0 {
		desired = q.GroupBy
	}

	single := len(tables) == 1
	var joined *PlanNode
	var joinedOrder []string

	if single {
		t := tables[0]
		best, ordered := e.scanPaths(q, t, infos[t], cfg, mode, desired)
		joined = best.node
		joinedOrder = best.orderedOn
		// An ordered path may beat cheapest-plus-sort; resolved below by
		// building both final plans and keeping the cheaper.
		if ordered != nil {
			alt := e.finishPlan(q, ordered.node, ordered.orderedOn, topGroups, mode)
			main := e.finishPlan(q, joined, joinedOrder, topGroups, mode)
			if alt.Cost < main.Cost {
				return alt, nil
			}
			return main, nil
		}
	} else {
		var err error
		joined, err = e.joinSearch(q, tables, infos, cfg, mode)
		if err != nil {
			return nil, err
		}
	}
	return e.finishPlan(q, joined, joinedOrder, topGroups, mode), nil
}

// scanPaths returns the cheapest access path for a table and, when desired
// names an order this table could provide (single-table queries only), the
// cheapest path that delivers that order (nil if none or if the cheapest
// path already provides it).
func (e *Engine) scanPaths(q *sqlx.Query, table string, info *tableInfo, cfg schema.Config, mode Mode, desired []sqlx.ColumnRef) (best accessPath, ordered *accessPath) {
	t := e.schema.Table(table)
	sel := e.combineGroups(table, info.groups, mode)
	info.sel = sel
	outRows := float64(t.Rows) * sel
	if outRows < 1 {
		outRows = 1
	}

	// Sequential scan.
	seqCost := t.Pages()*seqPageCost + float64(t.Rows)*cpuTupleCost +
		float64(t.Rows)*float64(info.predOps)*cpuOpCost
	best = accessPath{node: &PlanNode{Type: SeqScan, Table: table, Cost: seqCost, Rows: outRows, Height: 1}}

	// The order this table would need to provide, as local column names.
	var wantOrder []string
	for _, c := range desired {
		if c.Table != table {
			wantOrder = nil
			break
		}
		wantOrder = append(wantOrder, c.Column)
	}

	var bestOrdered *accessPath
	for _, ix := range cfg {
		if ix.Table != table {
			continue
		}
		path := e.indexPath(q, t, ix, info, sel, outRows, mode)
		if path == nil {
			continue
		}
		if path.node.Cost < best.node.Cost {
			best = *path
		}
		if len(wantOrder) > 0 && providesOrder(path.orderedOn, wantOrder) {
			if bestOrdered == nil || path.node.Cost < bestOrdered.node.Cost {
				p := *path
				bestOrdered = &p
			}
		}
	}
	if bestOrdered != nil && !providesOrder(best.orderedOn, wantOrder) {
		return best, bestOrdered
	}
	return best, nil
}

// providesOrder reports whether an output ordered on `have` satisfies the
// required prefix `want`.
func providesOrder(have, want []string) bool {
	if len(want) == 0 || len(have) < len(want) {
		return false
	}
	for i, c := range want {
		if have[i] != c {
			return false
		}
	}
	return true
}

// indexPath prices scanning table t with index ix, or returns nil when the
// index is useless for this query (no sargable prefix match, not covering,
// and providing no order anyone asked for — order filtering happens in the
// caller, so pure-order paths are still returned here).
func (e *Engine) indexPath(q *sqlx.Query, t *schema.Table, ix schema.Index, info *tableInfo, sel, outRows float64, mode Mode) *accessPath {
	// Sargable single-predicate groups by column.
	eq := map[string]sqlx.Predicate{}
	rng := map[string]sqlx.Predicate{}
	for _, g := range info.groups {
		if !g.sargable {
			continue
		}
		p := g.preds[0]
		if p.Op == sqlx.OpEq {
			eq[p.Col.Column] = p
		} else {
			if _, dup := rng[p.Col.Column]; !dup {
				rng[p.Col.Column] = p
			}
		}
	}
	matchedSel := 1.0
	nMatched := 0
	for _, cn := range ix.Columns {
		if p, ok := eq[cn]; ok {
			matchedSel *= e.predSel(p, mode)
			nMatched++
			continue
		}
		if p, ok := rng[cn]; ok {
			matchedSel *= e.predSel(p, mode)
			nMatched++
		}
		break
	}
	covering := true
	have := map[string]bool{}
	for _, cn := range ix.Columns {
		have[cn] = true
	}
	for cn := range info.reqCols {
		if !have[cn] {
			covering = false
			break
		}
	}
	if nMatched == 0 && !covering {
		// Full index scan is only plausible for order; allow it but price
		// the whole leaf level.
		matchedSel = 1
	}
	matchRows := float64(t.Rows) * matchedSel
	if matchRows < 1 {
		matchRows = 1
	}
	ixPages := ix.SizeBytes(e.schema) / schema.PageSize
	cost := btreeHeight(float64(t.Rows))*randPageCost +
		matchedSel*ixPages*seqPageCost +
		matchRows*cpuIndexCost
	typ := IndexScan
	if covering {
		typ = IndexOnlyScan
	} else {
		cost += mackertLohman(matchRows, t.Pages()) * randPageCost
	}
	// Residual predicate evaluation on fetched rows.
	resid := info.predOps - nMatched
	if resid > 0 {
		cost += matchRows * float64(resid) * cpuOpCost
	}
	node := &PlanNode{Type: typ, Table: t.Name, Index: &ix, Cost: cost, Rows: outRows, Height: 1}
	return &accessPath{node: node, orderedOn: ix.Columns}
}

// joinSearch runs bitmask dynamic programming over the query's tables.
func (e *Engine) joinSearch(q *sqlx.Query, tables []string, infos map[string]*tableInfo, cfg schema.Config, mode Mode) (*PlanNode, error) {
	n := len(tables)
	idx := map[string]int{}
	for i, t := range tables {
		idx[t] = i
	}
	base := make([]*PlanNode, n)
	for i, t := range tables {
		best, _ := e.scanPaths(q, t, infos[t], cfg, mode, nil)
		base[i] = best.node
	}

	// Pre-compute cardinalities per subset so every plan for a subset
	// agrees on output rows (standard DP discipline).
	full := (1 << n) - 1
	card := make([]float64, full+1)
	for m := 1; m <= full; m++ {
		card[m] = e.subsetCard(q, tables, infos, m, idx, mode)
	}

	dp := make([]*PlanNode, full+1)
	for i := 0; i < n; i++ {
		dp[1<<i] = base[i]
	}
	for m := 1; m <= full; m++ {
		if dp[m] != nil || !e.connected(q, tables, m, idx) {
			continue
		}
		var best *PlanNode
		for s1 := (m - 1) & m; s1 > 0; s1 = (s1 - 1) & m {
			s2 := m ^ s1
			if s1 > s2 {
				continue // each split considered once
			}
			p1, p2 := dp[s1], dp[s2]
			if p1 == nil || p2 == nil {
				continue
			}
			if !e.crossJoined(q, tables, s1, s2, idx) {
				continue
			}
			cand := e.bestJoin(q, tables, infos, cfg, mode, p1, p2, s1, s2, idx, card[m])
			if cand != nil && (best == nil || cand.Cost < best.Cost) {
				best = cand
			}
		}
		dp[m] = best
	}
	if dp[full] == nil {
		// Disconnected join graph: fall back to cross products, joining
		// components greedily with hash joins.
		return e.crossProductFallback(q, tables, infos, cfg, mode, dp, card)
	}
	return dp[full], nil
}

// connected reports whether the subset of tables is connected in the
// query's join graph (singletons are connected).
func (e *Engine) connected(q *sqlx.Query, tables []string, m int, idx map[string]int) bool {
	first := -1
	cnt := 0
	for i := range tables {
		if m&(1<<i) != 0 {
			if first < 0 {
				first = i
			}
			cnt++
		}
	}
	if cnt <= 1 {
		return true
	}
	seen := 1 << first
	for changed := true; changed; {
		changed = false
		for _, j := range q.Joins {
			a, aok := idx[j.Left.Table]
			b, bok := idx[j.Right.Table]
			if !aok || !bok || m&(1<<a) == 0 || m&(1<<b) == 0 {
				continue
			}
			if seen&(1<<a) != 0 && seen&(1<<b) == 0 {
				seen |= 1 << b
				changed = true
			}
			if seen&(1<<b) != 0 && seen&(1<<a) == 0 {
				seen |= 1 << a
				changed = true
			}
		}
	}
	return countBits(seen&m) == cnt
}

func countBits(x int) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// crossJoined reports whether a join predicate connects the two subsets.
func (e *Engine) crossJoined(q *sqlx.Query, tables []string, s1, s2 int, idx map[string]int) bool {
	for _, j := range q.Joins {
		a, aok := idx[j.Left.Table]
		b, bok := idx[j.Right.Table]
		if !aok || !bok {
			continue
		}
		if (s1&(1<<a) != 0 && s2&(1<<b) != 0) || (s2&(1<<a) != 0 && s1&(1<<b) != 0) {
			return true
		}
	}
	return false
}

// subsetCard estimates the output cardinality of joining the subset m:
// the product of filtered base cardinalities shrunk by every internal join
// predicate's 1/max(ndv) factor.
func (e *Engine) subsetCard(q *sqlx.Query, tables []string, infos map[string]*tableInfo, m int, idx map[string]int, mode Mode) float64 {
	card := 1.0
	for i, tn := range tables {
		if m&(1<<i) == 0 {
			continue
		}
		t := e.schema.Table(tn)
		card *= float64(t.Rows) * infos[tn].sel
	}
	for _, j := range q.Joins {
		a, aok := idx[j.Left.Table]
		b, bok := idx[j.Right.Table]
		if !aok || !bok || m&(1<<a) == 0 || m&(1<<b) == 0 {
			continue
		}
		ndv := math.Max(e.columnNDV(j.Left, mode), e.columnNDV(j.Right, mode))
		card /= ndv
	}
	if card < 1 {
		card = 1
	}
	return card
}

// bestJoin prices the join algorithms for combining two sub-plans and
// returns the cheapest.
func (e *Engine) bestJoin(q *sqlx.Query, tables []string, infos map[string]*tableInfo, cfg schema.Config, mode Mode, p1, p2 *PlanNode, s1, s2 int, idx map[string]int, outRows float64) *PlanNode {
	childCost := p1.Cost + p2.Cost

	// Hash join: build the smaller input.
	build, probe := p1, p2
	if probe.Rows < build.Rows {
		build, probe = probe, build
	}
	hashCost := childCost + build.Rows*cpuTupleCost*hashBuildMult +
		probe.Rows*cpuTupleCost + outRows*cpuTupleCost
	best := newNode(HashJoin, hashCost, outRows, p1, p2)

	// Merge join: sort both inputs then merge.
	mergeCost := childCost + sortCost(p1.Rows) + sortCost(p2.Rows) +
		(p1.Rows+p2.Rows)*cpuTupleCost + outRows*cpuTupleCost
	if mergeCost < best.Cost {
		s1n := newNode(Sort, p1.Cost+sortCost(p1.Rows), p1.Rows, p1)
		s2n := newNode(Sort, p2.Cost+sortCost(p2.Rows), p2.Rows, p2)
		best = newNode(MergeJoin, mergeCost, outRows, s1n, s2n)
	}

	// Nested loop with a parameterized index scan when one side is a
	// single base table with an index led by the join column.
	for _, flip := range []bool{false, true} {
		outer, innerMask := p1, s2
		if flip {
			outer, innerMask = p2, s1
		}
		if countBits(innerMask) != 1 {
			continue
		}
		innerIdx := 0
		for i := range tables {
			if innerMask&(1<<i) != 0 {
				innerIdx = i
			}
		}
		innerTable := tables[innerIdx]
		joinCol := ""
		for _, j := range q.Joins {
			a, aok := idx[j.Left.Table]
			b, bok := idx[j.Right.Table]
			if !aok || !bok {
				continue
			}
			if j.Left.Table == innerTable && innerMask&(1<<a) != 0 && (s1|s2)&^innerMask&(1<<b) != 0 {
				joinCol = j.Left.Column
			}
			if j.Right.Table == innerTable && innerMask&(1<<b) != 0 && (s1|s2)&^innerMask&(1<<a) != 0 {
				joinCol = j.Right.Column
			}
		}
		if joinCol == "" {
			continue
		}
		for i := range cfg {
			ix := &cfg[i]
			if ix.Table != innerTable || ix.Columns[0] != joinCol {
				continue
			}
			t := e.schema.Table(innerTable)
			ndv := e.columnNDV(sqlx.ColumnRef{Table: innerTable, Column: joinCol}, mode)
			matchRows := float64(t.Rows) / ndv
			if matchRows < 1 {
				matchRows = 1
			}
			lookup := btreeHeight(float64(t.Rows))*randPageCost +
				matchRows*cpuIndexCost +
				mackertLohman(matchRows, t.Pages())*randPageCost +
				matchRows*float64(infos[innerTable].predOps)*cpuOpCost
			nlCost := outer.Cost + outer.Rows*lookup + outRows*cpuTupleCost
			if nlCost < best.Cost {
				// Copy the index only when it wins: the published plan
				// must not alias the caller's cfg.
				chosen := *ix
				inner := &PlanNode{
					Type: IndexScan, Table: innerTable, Index: &chosen,
					Cost: lookup, Rows: matchRows * infos[innerTable].sel, Height: 1,
				}
				if inner.Rows < 1 {
					inner.Rows = 1
				}
				best = newNode(NestLoop, nlCost, outRows, outer, inner)
			}
		}
	}
	return best
}

// crossProductFallback joins disconnected components with hash joins in
// table order; rare (the workload generators only emit connected joins)
// but keeps arbitrary parsed queries plannable.
func (e *Engine) crossProductFallback(q *sqlx.Query, tables []string, infos map[string]*tableInfo, cfg schema.Config, mode Mode, dp []*PlanNode, card []float64) (*PlanNode, error) {
	n := len(tables)
	full := (1 << n) - 1
	// Collect the largest planned connected components greedily.
	var parts []*PlanNode
	var masks []int
	remaining := full
	for remaining != 0 {
		bestMask := 0
		for m := remaining; m > 0; m = (m - 1) & remaining {
			if dp[m] != nil && countBits(m) > countBits(bestMask) {
				bestMask = m
			}
		}
		if bestMask == 0 {
			return nil, fmt.Errorf("engine: cannot plan join of %v", tables)
		}
		parts = append(parts, dp[bestMask])
		masks = append(masks, bestMask)
		remaining &^= bestMask
	}
	cur := parts[0]
	curMask := masks[0]
	for i := 1; i < len(parts); i++ {
		curMask |= masks[i]
		rows := card[curMask] // internal joins only; cross product handled by card
		rows = math.Max(rows, cur.Rows*parts[i].Rows/math.Max(cur.Rows, 1))
		cost := cur.Cost + parts[i].Cost + cur.Rows*parts[i].Rows*cpuTupleCost
		cur = newNode(NestLoop, cost, rows, cur, parts[i])
	}
	return cur, nil
}

// finishPlan applies multi-table filters, aggregation, HAVING and ORDER BY
// on top of the joined (or scanned) input.
func (e *Engine) finishPlan(q *sqlx.Query, input *PlanNode, inputOrder []string, topGroups []predGroup, mode Mode) *PlanNode {
	plan := input
	rows := plan.Rows

	if len(topGroups) > 0 {
		sel := 1.0
		terms := 0
		for _, g := range topGroups {
			sel *= e.groupSel(g, mode)
			terms += len(g.preds)
		}
		rows = math.Max(1, rows*sel)
		cost := plan.Cost + plan.Rows*float64(terms)*cpuOpCost
		plan = newNode(Result, cost, rows, plan)
	}

	hasAgg := q.Having != nil
	for _, s := range q.Select {
		if s.Agg != "" {
			hasAgg = true
		}
	}

	orderSatisfied := func(cols []sqlx.ColumnRef) bool {
		if len(cols) == 0 {
			return true
		}
		var want []string
		table := cols[0].Table
		for _, c := range cols {
			if c.Table != table {
				return false
			}
			want = append(want, c.Column)
		}
		return plan == input && providesOrder(inputOrder, want)
	}

	if len(q.GroupBy) > 0 {
		groups := 1.0
		for _, c := range q.GroupBy {
			groups *= e.columnNDV(c, mode)
		}
		groups = math.Min(groups, rows)
		if groups < 1 {
			groups = 1
		}
		if orderSatisfied(q.GroupBy) {
			cost := plan.Cost + rows*cpuTupleCost + groups*cpuTupleCost
			plan = newNode(GroupAggregate, cost, groups, plan)
		} else {
			cost := plan.Cost + rows*cpuTupleCost*1.2 + groups*cpuTupleCost
			plan = newNode(HashAggregate, cost, groups, plan)
		}
		rows = groups
		if q.Having != nil {
			rows = math.Max(1, rows/3) // default HAVING selectivity
			plan.Rows = rows
			plan.Cost += plan.Children[0].Rows * cpuOpCost
		}
	} else if hasAgg {
		cost := plan.Cost + rows*cpuTupleCost
		plan = newNode(GroupAggregate, cost, 1, plan)
		rows = 1
	}

	if len(q.OrderBy) > 0 && rows > 1 {
		sorted := len(q.GroupBy) == 0 && orderSatisfied(q.OrderBy)
		if !sorted {
			plan = newNode(Sort, plan.Cost+sortCost(rows), rows, plan)
		}
	}
	return plan
}
