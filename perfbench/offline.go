package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/trap-repro/trap/internal/advisor"
	"github.com/trap-repro/trap/internal/assess"
	"github.com/trap-repro/trap/internal/bench"
	"github.com/trap-repro/trap/internal/core"
	"github.com/trap-repro/trap/internal/schema"
)

// grid is one offline workload: a dataset and the slice of the Fig. 6
// grid assessed on it. One round assesses the whole grid on a fresh suite
// built at dataSeed; the run's seed draws the order of the advisors and,
// per advisor, of its (constraint, method) cells.
type grid struct {
	dataset     string
	schema      func(scaleDown int64) *schema.Schema
	advisors    []string
	methods     []string
	constraints []core.PerturbConstraint
}

// dataSeed is the suite seed of every workload: the experiments CLI's
// default. The amount of work a quick-scale grid does depends strongly on
// the suite seed (one Fig. 6 grid took 7.0 s at suite seed 2 and 19.9 s at
// suite seed 1 on the same 2-CPU VM), so the run's seed varies the order
// of the work instead, which changes the outputs (see goldens.json) but
// not how much work there is.
const dataSeed = 42

func tenAdvisorNames() []string {
	var names []string
	for _, s := range assess.TenAdvisors() {
		names = append(names, s.Name)
	}
	return names
}

// fig6TPCH is `experiments -exp fig6 -scale quick`: 10 advisors × 4
// methods × 3 constraints on TPC-H.
var fig6TPCH = grid{dataset: "tpch", schema: bench.TPCH, advisors: tenAdvisorNames(),
	methods: assess.MethodNames, constraints: core.AllConstraints}

// advisorsTPCDS sweeps all 10 advisors with the Random method, which
// trains no generator, on the wider TPC-DS schema.
var advisorsTPCDS = grid{dataset: "tpcds", schema: bench.TPCDS, advisors: tenAdvisorNames(),
	methods: []string{"Random"}, constraints: core.AllConstraints}

func (g grid) size() int { return len(g.advisors) * len(g.methods) * len(g.constraints) }

// advisorPlan is one advisor and its cells, in assessment order.
type advisorPlan struct {
	advisor string
	cells   []cellSpec
}

type cellSpec struct {
	constraint core.PerturbConstraint
	method     string
}

// plan returns the grid in assess.Fig6's order (advisor, constraint,
// method) when rng is nil, and shuffled by rng otherwise.
func (g grid) plan(rng *rand.Rand) []advisorPlan {
	var out []advisorPlan
	for _, a := range g.advisors {
		ap := advisorPlan{advisor: a}
		for _, pc := range g.constraints {
			for _, m := range g.methods {
				ap.cells = append(ap.cells, cellSpec{pc, m})
			}
		}
		out = append(out, ap)
	}
	if rng != nil {
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		for _, ap := range out {
			rng.Shuffle(len(ap.cells), func(i, j int) { ap.cells[i], ap.cells[j] = ap.cells[j], ap.cells[i] })
		}
	}
	return out
}

// cell is one assessed (constraint, advisor, method) result.
type cell struct {
	Constraint string  `json:"constraint"`
	Advisor    string  `json:"advisor"`
	Method     string  `json:"method"`
	IUDR       float64 `json:"iudr"`
	N          int     `json:"n"`
	Err        string  `json:"err,omitempty"`
}

func (c cell) key() string { return c.Constraint + "/" + c.Advisor + "/" + c.Method }

// newSuite builds the grid's suite at quick scale and dataSeed.
func (g grid) newSuite() (*assess.Suite, error) {
	p := assess.QuickParams()
	return assess.NewSuite(g.dataset, g.schema(p.ScaleDown), p, dataSeed)
}

// assessGrid runs every cell of the plan on s. It returns the cells (a
// failed cell carries its error) and each cell's latency in milliseconds:
// its BuildMethod plus Measure time. Spans go to tr under the round span;
// the spans of one cell share a trace ID.
func assessGrid(s *assess.Suite, plan []advisorPlan, tr *tracer, round, roundSpan int) ([]cell, []float64) {
	var cells []cell
	var lat []float64
	id := int64(round) * 1_000_000
	for _, ap := range plan {
		id++
		advSpan := tr.begin(id, roundSpan, round, "advisor")
		bs := tr.begin(id, advSpan, round, "advisor_build")
		spec, err := assess.SpecByName(ap.advisor)
		var adv, base advisor.Advisor
		var ac advisor.Constraint
		if err == nil {
			adv, err = s.BuildAdvisor(spec)
			base, ac = s.BaselineAdvisor(spec), s.ConstraintFor(spec)
		}
		tr.end(bs)
		for _, cs := range ap.cells {
			id++
			c := cell{Constraint: cs.constraint.String(), Advisor: ap.advisor, Method: cs.method}
			if err != nil {
				c.Err = fmt.Sprintf("building advisor: %v", err)
			} else {
				t0 := time.Now()
				sp := tr.begin(id, advSpan, round, "cell")
				c.IUDR, c.N, c.Err = assessCell(s, adv, base, ac, cs, tr, id, sp, round)
				tr.end(sp)
				lat = append(lat, float64(time.Since(t0))/float64(time.Millisecond))
			}
			cells = append(cells, c)
		}
		tr.end(advSpan)
	}
	return cells, lat
}

// assessCell builds one generation method against adv and measures it.
func assessCell(s *assess.Suite, adv, base advisor.Advisor, ac advisor.Constraint, cs cellSpec,
	tr *tracer, id int64, parent, round int) (iudr float64, n int, errText string) {
	ctx := context.Background()
	bs := tr.begin(id, parent, round, "method_build")
	m, err := s.BuildMethod(ctx, cs.method, cs.constraint, adv, base, ac, assess.MethodConfig{})
	tr.end(bs)
	if err != nil {
		return 0, 0, err.Error()
	}
	ms := tr.begin(id, parent, round, "measure")
	res, err := s.Measure(ctx, m, adv, base, ac)
	tr.end(ms)
	if err != nil {
		return 0, 0, err.Error()
	}
	return res.MeanIUDR, res.N, ""
}
