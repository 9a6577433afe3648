package engine

import (
	"strings"
	"testing"

	"github.com/trap-repro/trap/internal/schema"
	"github.com/trap-repro/trap/internal/sqlx"
	"github.com/trap-repro/trap/internal/stats"
)

func TestDisconnectedJoinFallback(t *testing.T) {
	e := New(testSchema())
	// orders and items without a join predicate: a cross product the
	// fallback path must still plan.
	q := sqlx.MustParse("SELECT orders.id, items.price FROM orders, items WHERE orders.odate = 3 AND items.price > 100")
	p, err := e.Plan(q, nil, ModeEstimated)
	if err != nil {
		t.Fatalf("cross product unplannable: %v", err)
	}
	if p.Cost <= 0 || p.Rows <= 0 {
		t.Error("degenerate cross product plan")
	}
	scans := 0
	p.Walk(func(n *PlanNode) {
		if n.Type == SeqScan || n.Type == IndexScan || n.Type == IndexOnlyScan {
			scans++
		}
	})
	if scans != 2 {
		t.Errorf("cross product should scan both tables, got %d", scans)
	}
}

func TestGroupAggregateOnSortedInput(t *testing.T) {
	e := New(testSchema())
	q := sqlx.MustParse("SELECT orders.status, COUNT(orders.id) FROM orders GROUP BY orders.status")
	pHash, _ := e.Plan(q, nil, ModeEstimated)
	if pHash.Type != HashAggregate {
		t.Errorf("ungrouped input should hash-aggregate, got %s", pHash.Type)
	}
	ix := schema.Index{Table: "orders", Columns: []string{"status", "id"}}
	pSorted, _ := e.Plan(q, schema.Config{ix}, ModeEstimated)
	// A covering index ordered on the grouping column enables the sorted
	// GroupAggregate when it is the cheaper total plan.
	if pSorted.Cost > pHash.Cost {
		t.Errorf("index made grouping more expensive: %v > %v", pSorted.Cost, pHash.Cost)
	}
}

func TestMultiTableOrGroupAppliedAtTop(t *testing.T) {
	e := New(testSchema())
	// An OR group spanning two tables cannot be pushed to either base
	// relation; the plan must still produce sane cardinalities.
	q := sqlx.MustParse("SELECT orders.id FROM orders, customers " +
		"WHERE orders.cust_id = customers.id AND orders.status = 'status_0' OR customers.region = 'region_1'")
	p, err := e.Plan(q, nil, ModeEstimated)
	if err != nil {
		t.Fatal(err)
	}
	hasResult := false
	p.Walk(func(n *PlanNode) {
		if n.Type == Result {
			hasResult = true
		}
	})
	if !hasResult {
		t.Errorf("cross-table OR group should be applied at the top:\n%s", p)
	}
	if p.Rows <= 0 {
		t.Error("non-positive rows")
	}
}

func TestPlanStringRendering(t *testing.T) {
	e := New(testSchema())
	q := sqlx.MustParse("SELECT orders.total FROM orders WHERE orders.cust_id = 42 ORDER BY orders.total")
	ix := schema.Index{Table: "orders", Columns: []string{"cust_id"}}
	p, _ := e.Plan(q, schema.Config{ix}, ModeEstimated)
	out := p.String()
	for _, want := range []string{"Sort", "Index Scan", "orders(cust_id)", "cost="} {
		if !strings.Contains(out, want) {
			t.Errorf("plan rendering missing %q:\n%s", want, out)
		}
	}
}

func TestValueOutsideDomain(t *testing.T) {
	e := New(testSchema())
	// Equality with a literal not in the column domain selects ~nothing;
	// range with a huge literal selects everything.
	qEq := sqlx.MustParse("SELECT orders.id FROM orders WHERE orders.cust_id = 123456789")
	qLt := sqlx.MustParse("SELECT orders.id FROM orders WHERE orders.cust_id < 123456789")
	pEq, _ := e.Plan(qEq, nil, ModeTrue)
	pLt, _ := e.Plan(qLt, nil, ModeTrue)
	if pEq.Rows > 10 {
		t.Errorf("out-of-domain equality rows = %v", pEq.Rows)
	}
	if pLt.Rows < 400_000 {
		t.Errorf("full-range predicate rows = %v", pLt.Rows)
	}
	// String literal on a numeric column.
	qStr := sqlx.MustParse("SELECT orders.id FROM orders WHERE orders.cust_id = 'oops'")
	if _, err := e.Plan(qStr, nil, ModeEstimated); err != nil {
		t.Errorf("mistyped literal should still plan: %v", err)
	}
}

func TestIndexOnlyWithoutPredicates(t *testing.T) {
	e := New(testSchema())
	// SELECT of a single covered column with no predicates: a full
	// index-only scan beats a seqscan because the index is narrower.
	q := sqlx.MustParse("SELECT orders.cust_id FROM orders")
	ix := schema.Index{Table: "orders", Columns: []string{"cust_id"}}
	p, _ := e.Plan(q, schema.Config{ix}, ModeEstimated)
	if p.Type != IndexOnlyScan {
		t.Errorf("narrow covering scan not chosen, got %s", p.Type)
	}
}

func TestMergeJoinConsidered(t *testing.T) {
	e := New(testSchema())
	// Force a join between two large filtered inputs and check a join is
	// selected with positive cost; the DP must have compared hash, merge
	// and NL honestly (no NaNs / negatives).
	q := sqlx.MustParse("SELECT orders.id FROM orders, customers WHERE orders.cust_id = customers.id")
	p, err := e.Plan(q, nil, ModeEstimated)
	if err != nil {
		t.Fatal(err)
	}
	var join *PlanNode
	p.Walk(func(n *PlanNode) {
		if n.Type == HashJoin || n.Type == MergeJoin || n.Type == NestLoop {
			join = n
		}
	})
	if join == nil {
		t.Fatal("no join node")
	}
	if join.Cost <= join.Children[0].Cost {
		t.Error("join cost must exceed child cost")
	}
}

func TestFourWayJoinChain(t *testing.T) {
	s := testSchema()
	// Extend the schema with one more table chained off items.
	brands := schema.NewTable("brands", 200, []schema.Column{
		{Name: "id", Type: schema.IntCol, Width: 8, Dist: stats.Dist{NDV: 200, Max: 199}},
		{Name: "name", Type: schema.StringCol, Width: 16, Dist: stats.Dist{NDV: 200, Max: 199}},
	})
	s2 := schema.New("star4",
		append(append([]*schema.Table{}, s.Tables...), brands),
		append(append([]schema.JoinEdge{}, s.Joins...),
			schema.JoinEdge{LeftTable: "items", LeftColumn: "category", RightTable: "brands", RightColumn: "id"}))
	e := New(s2)
	q := sqlx.MustParse("SELECT brands.name FROM orders, customers, items, brands " +
		"WHERE orders.cust_id = customers.id AND orders.item_id = items.id " +
		"AND items.category = brands.id AND customers.region = 'region_1'")
	p, err := e.Plan(q, nil, ModeEstimated)
	if err != nil {
		t.Fatal(err)
	}
	joins := 0
	p.Walk(func(n *PlanNode) {
		if n.Type == HashJoin || n.Type == MergeJoin || n.Type == NestLoop {
			joins++
		}
	})
	if joins != 3 {
		t.Errorf("4-way join should have 3 join nodes, got %d:\n%s", joins, p)
	}
}

func BenchmarkPlanSingleTable(b *testing.B) {
	e := New(testSchema())
	q := sqlx.MustParse("SELECT orders.total FROM orders WHERE orders.cust_id = 42 AND orders.status = 'status_1'")
	cfg := schema.Config{{Table: "orders", Columns: []string{"cust_id", "status"}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ClearCache()
		if _, err := e.Plan(q, cfg, ModeEstimated); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanThreeWayJoin(b *testing.B) {
	e := New(testSchema())
	q := sqlx.MustParse("SELECT items.category, COUNT(orders.id) FROM orders, customers, items " +
		"WHERE orders.cust_id = customers.id AND orders.item_id = items.id " +
		"AND customers.region = 'region_3' GROUP BY items.category")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ClearCache()
		if _, err := e.Plan(q, nil, ModeEstimated); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanCacheHit(b *testing.B) {
	e := New(testSchema())
	q := sqlx.MustParse("SELECT orders.total FROM orders WHERE orders.cust_id = 42")
	if _, err := e.Plan(q, nil, ModeEstimated); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Plan(q, nil, ModeEstimated); err != nil {
			b.Fatal(err)
		}
	}
}

// TestInvalidQueryErrorMemoized: validation runs once per query memo, so
// an invalid query fails every Plan call with the same error and never
// leaves a cache entry behind.
func TestInvalidQueryErrorMemoized(t *testing.T) {
	e := New(testSchema())
	q := &sqlx.Query{
		Select: []sqlx.SelectItem{{Col: sqlx.ColumnRef{Table: "customers", Column: "region"}}},
		From:   []sqlx.TableRef{{Name: "orders"}},
	}
	_, first := e.Plan(q, nil, ModeEstimated)
	if first == nil || !strings.Contains(first.Error(), "not in FROM") {
		t.Fatalf("Plan of a column outside FROM: err %v, want a not-in-FROM error", first)
	}
	for i := 0; i < 3; i++ {
		for _, mode := range []Mode{ModeEstimated, ModeTrue} {
			if _, err := e.Plan(q, nil, mode); err != first {
				t.Fatalf("call %d: err %v, want the memoized %v", i, err, first)
			}
		}
	}
	if n := e.CacheStats().Entries; n != 0 {
		t.Fatalf("invalid query left %d cache entries", n)
	}
}

// TestInvalidateRevalidates: mutating a costed query into an invalid one
// and calling Invalidate drops the memoized validation with the rest of
// the analysis, so the next plan fails.
func TestInvalidateRevalidates(t *testing.T) {
	e := New(testSchema())
	q := sqlx.MustParse("SELECT orders.total FROM orders WHERE orders.status = 3")
	if _, err := e.Plan(q, nil, ModeEstimated); err != nil {
		t.Fatal(err)
	}
	q.Filters[0].Col = sqlx.ColumnRef{Table: "items", Column: "price"}
	q.Invalidate()
	if _, err := e.Plan(q, nil, ModeEstimated); err == nil || !strings.Contains(err.Error(), "not in FROM") {
		t.Fatalf("Plan after mutation + Invalidate: err %v, want a not-in-FROM error", err)
	}
}

// TestPlanMissAllocBudget gates the allocations of a plan-cache miss on
// an already-analysed query (validation memoized, no per-table config
// copies, the nested-loop index copied only when it wins). Allocation
// counts are deterministic; lower the budget when a change beats it.
// The calls go through planCached with a test-owned key buffer, the path
// Plan takes after borrowing one from keyBufPool: under -race sync.Pool
// drops items at random, which would make the count vary.
func TestPlanMissAllocBudget(t *testing.T) {
	const budget = 22
	e := New(testSchema())
	q := sqlx.MustParse("SELECT orders.total, customers.region FROM orders, customers WHERE orders.cust_id = customers.id AND orders.status = 3 AND customers.segment = 2")
	if _, err := e.Plan(q, nil, ModeEstimated); err != nil {
		t.Fatal(err)
	}
	// Every call plans a configuration not seen before, so each misses.
	cols := []string{"id", "cust_id", "item_id", "status", "total", "odate"}
	var cfgs []schema.Config
	for _, a := range cols {
		for _, b := range cols {
			if a != b {
				cfgs = append(cfgs, schema.Config{
					{Table: "customers", Columns: []string{"id"}},
					{Table: "orders", Columns: []string{a, b}},
				})
			}
		}
	}
	missesBefore := e.CacheStats().Misses
	kb := new(keyBuf)
	i := 0
	allocs := testing.AllocsPerRun(len(cfgs)-1, func() {
		if _, err := e.planCached(kb, q, cfgs[i], ModeEstimated); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if misses := e.CacheStats().Misses - missesBefore; misses != uint64(len(cfgs)) {
		t.Fatalf("%d of %d plans missed the cache", misses, len(cfgs))
	}
	if allocs > budget {
		t.Fatalf("a plan-cache miss made %v allocations, budget %d", allocs, budget)
	}
}
