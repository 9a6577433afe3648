package schema

import (
	"testing"

	"github.com/trap-repro/trap/internal/sqlx"
	"github.com/trap-repro/trap/internal/stats"
)

func testSchema() *Schema {
	t1 := NewTable("orders", 100000, []Column{
		{Name: "id", Type: IntCol, Width: 8, Dist: stats.Dist{NDV: 100000, Min: 0, Max: 99999}},
		{Name: "cust_id", Type: IntCol, Width: 8, Dist: stats.Dist{NDV: 5000, Min: 0, Max: 4999}},
		{Name: "status", Type: StringCol, Width: 12, Dist: stats.Dist{NDV: 5, Min: 0, Max: 4, Skew: 1}},
		{Name: "total", Type: FloatCol, Width: 8, Dist: stats.Dist{NDV: 10000, Min: 0, Max: 100000}},
	})
	t2 := NewTable("customers", 5000, []Column{
		{Name: "id", Type: IntCol, Width: 8, Dist: stats.Dist{NDV: 5000, Min: 0, Max: 4999}},
		{Name: "region", Type: StringCol, Width: 16, Dist: stats.Dist{NDV: 25, Min: 0, Max: 24}},
	})
	s := New("test", []*Table{t1, t2}, []JoinEdge{
		{LeftTable: "orders", LeftColumn: "cust_id", RightTable: "customers", RightColumn: "id"},
	})
	s.SetCorrelation("orders", "status", "total", 0.6)
	return s
}

func TestSchemaLookups(t *testing.T) {
	s := testSchema()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Table("orders") == nil || s.Table("nope") != nil {
		t.Error("Table lookup wrong")
	}
	if s.Column(sqlx.ColumnRef{Table: "orders", Column: "status"}) == nil {
		t.Error("Column lookup failed")
	}
	if s.Column(sqlx.ColumnRef{Table: "orders", Column: "missing"}) != nil {
		t.Error("missing column resolved")
	}
	if s.ColumnCount() != 6 {
		t.Errorf("ColumnCount = %d, want 6", s.ColumnCount())
	}
	if _, ok := s.JoinBetween("orders", "customers"); !ok {
		t.Error("JoinBetween failed")
	}
	if _, ok := s.JoinBetween("customers", "orders"); !ok {
		t.Error("JoinBetween not symmetric")
	}
	if len(s.JoinsOf("orders")) != 1 {
		t.Error("JoinsOf wrong")
	}
}

func TestCorrelationSymmetry(t *testing.T) {
	s := testSchema()
	if s.Correlation("orders", "status", "total") != 0.6 {
		t.Error("correlation lookup failed")
	}
	if s.Correlation("orders", "total", "status") != 0.6 {
		t.Error("correlation not symmetric")
	}
	if s.Correlation("orders", "id", "total") != 0 {
		t.Error("default correlation should be 0")
	}
}

func TestStringDatumRoundTrip(t *testing.T) {
	s := testSchema()
	c := s.Column(sqlx.ColumnRef{Table: "orders", Column: "status"})
	for i := int64(0); i < 5; i++ {
		d := c.DatumOf(i)
		if d.IsNum {
			t.Fatal("string column produced numeric datum")
		}
		v, ok := c.NumOf(d)
		if !ok || v != float64(i) {
			t.Errorf("NumOf(DatumOf(%d)) = %v, %v", i, v, ok)
		}
	}
	if _, ok := c.NumOf(sqlx.NumDatum(3)); ok {
		t.Error("numeric datum accepted for string column")
	}
	if _, ok := c.NumOf(sqlx.StrDatum("garbage")); ok {
		t.Error("malformed string datum accepted")
	}
}

func TestNumericDatumRoundTrip(t *testing.T) {
	s := testSchema()
	c := s.Column(sqlx.ColumnRef{Table: "orders", Column: "total"})
	d := c.DatumOf(42)
	v, ok := c.NumOf(d)
	if !ok || v != c.Dist.ValueAt(42) {
		t.Errorf("numeric round trip failed: %v %v", v, ok)
	}
	if _, ok := c.NumOf(sqlx.StrDatum("x")); ok {
		t.Error("string datum accepted for numeric column")
	}
}

func TestPagesAndSizes(t *testing.T) {
	s := testSchema()
	orders := s.Table("orders")
	if orders.Pages() <= 1 {
		t.Error("orders should span multiple pages")
	}
	if s.TotalSizeBytes() <= orders.SizeBytes() {
		t.Error("total size should exceed one table")
	}
	tiny := NewTable("tiny", 1, []Column{{Name: "a", Width: 4}})
	if tiny.Pages() != 1 {
		t.Error("minimum page count is 1")
	}
}

func TestIndexKeyAndPrefix(t *testing.T) {
	a := Index{Table: "t", Columns: []string{"x"}}
	ab := Index{Table: "t", Columns: []string{"x", "y"}}
	ba := Index{Table: "t", Columns: []string{"y", "x"}}
	if a.Key() != "t(x)" || ab.Key() != "t(x,y)" {
		t.Errorf("Key: %s %s", a.Key(), ab.Key())
	}
	if !a.IsPrefixOf(ab) {
		t.Error("x should be prefix of x,y")
	}
	if a.IsPrefixOf(ba) {
		t.Error("x should not be prefix of y,x")
	}
	if ab.IsPrefixOf(a) {
		t.Error("longer index cannot be prefix of shorter")
	}
	if ab.Equal(ba) {
		t.Error("column order matters for index identity")
	}
}

func TestConfigOps(t *testing.T) {
	s := testSchema()
	a := Index{Table: "orders", Columns: []string{"cust_id"}}
	b := Index{Table: "orders", Columns: []string{"status", "total"}}
	c := Index{Table: "customers", Columns: []string{"region"}}

	var cfg Config
	cfg = cfg.Add(a).Add(b).Add(c)
	if len(cfg) != 3 {
		t.Fatalf("len = %d", len(cfg))
	}
	if got := cfg.Add(a); len(got) != 3 {
		t.Error("Add of existing index should be no-op")
	}
	if !cfg.Contains(b) {
		t.Error("Contains failed")
	}
	cfg2 := cfg.Remove(b)
	if cfg2.Contains(b) || len(cfg2) != 2 {
		t.Error("Remove failed")
	}
	if cfg.SizeBytes(s) <= cfg2.SizeBytes(s) {
		t.Error("removing an index should shrink size")
	}
	// Key is order independent.
	rev := Config{c, b, a}
	if rev.Key() != cfg.Key() {
		t.Errorf("Key order dependence: %s vs %s", rev.Key(), cfg.Key())
	}
	clone := cfg.Clone()
	clone[0] = Index{Table: "zzz", Columns: []string{"q"}}
	if cfg[0].Table == "zzz" {
		t.Error("Clone shares storage")
	}
}

func TestIndexSize(t *testing.T) {
	s := testSchema()
	one := Index{Table: "orders", Columns: []string{"cust_id"}}
	two := Index{Table: "orders", Columns: []string{"cust_id", "total"}}
	if two.SizeBytes(s) <= one.SizeBytes(s) {
		t.Error("wider index should be larger")
	}
	missing := Index{Table: "nope", Columns: []string{"x"}}
	if missing.SizeBytes(s) != 0 {
		t.Error("missing table index size should be 0")
	}
}

func TestValidateCatchesBadJoin(t *testing.T) {
	t1 := NewTable("a", 10, []Column{{Name: "x", Width: 4}})
	s := New("bad", []*Table{t1}, []JoinEdge{{LeftTable: "a", LeftColumn: "x", RightTable: "b", RightColumn: "y"}})
	if err := s.Validate(); err == nil {
		t.Error("expected validation error for dangling join")
	}
}
