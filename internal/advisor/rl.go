package advisor

import (
	"context"
	"math/rand"

	"github.com/trap-repro/trap/internal/costmodel"
	"github.com/trap-repro/trap/internal/engine"
	"github.com/trap-repro/trap/internal/nn"
	"github.com/trap-repro/trap/internal/schema"
	"github.com/trap-repro/trap/internal/sqlx"
	"github.com/trap-repro/trap/internal/workload"
)

// scoreNet scores (state, candidate) pairs with a small MLP and provides a
// separate stop head over the state — a pointer-network-style architecture
// that handles variable action spaces with invalid-action masking.
type scoreNet struct {
	params *nn.Params
	h1     *nn.Dense
	h2     *nn.Dense
	stop1  *nn.Dense
	stop2  *nn.Dense
}

func newScoreNet(stateLen, hidden int, rng *rand.Rand) *scoreNet {
	p := &nn.Params{}
	return &scoreNet{
		params: p,
		h1:     nn.NewDense(p, "h1", stateLen+candFeatLen, hidden, rng),
		h2:     nn.NewDense(p, "h2", hidden, 1, rng),
		stop1:  nn.NewDense(p, "stop1", stateLen, hidden, rng),
		stop2:  nn.NewDense(p, "stop2", hidden, 1, rng),
	}
}

// logits scores every candidate plus the terminal stop action (last entry).
// The candidates are scored as one batch: column j of the packed input is
// [state; feats[j]], and each layer runs over all columns with one GEMM
// (nn.Dense.ApplyCols, bit-identical to scoring the columns one by one).
// The input is a graph-owned constant, so a reused, Reset graph scores
// without growing its arena.
func (n *scoreNet) logits(g *nn.Graph, state []float64, feats [][]float64) *nn.Tensor {
	s, c := len(state), len(feats)
	x := g.Input(s+candFeatLen, c)
	for p, v := range state {
		row := x.W[p*c : p*c+c]
		for j := range row {
			row[j] = v
		}
	}
	for j, f := range feats {
		for p, v := range f {
			x.W[(s+p)*c+j] = v
		}
	}
	cands := n.h2.ApplyCols(g, g.Tanh(n.h1.ApplyCols(g, x)))
	stop := n.stop2.ApplyCols(g, g.Tanh(n.stop1.ApplyCols(g, stateInput(g, state))))
	return g.Concat(g.Reshape(cands, c, 1), stop)
}

// stateInput copies the state into a graph-owned constant column.
func stateInput(g *nn.Graph, state []float64) *nn.Tensor {
	x := g.Input(len(state), 1)
	copy(x.W, state)
	return x
}

// valueNet is a small state-value MLP (the PPO baseline).
type valueNet struct {
	params *nn.Params
	h1, h2 *nn.Dense
}

func newValueNet(stateLen, hidden int, rng *rand.Rand) *valueNet {
	p := &nn.Params{}
	return &valueNet{
		params: p,
		h1:     nn.NewDense(p, "v1", stateLen, hidden, rng),
		h2:     nn.NewDense(p, "v2", hidden, 1, rng),
	}
}

func (n *valueNet) value(g *nn.Graph, state []float64) *nn.Tensor {
	return n.h2.ApplyCols(g, g.Tanh(n.h1.ApplyCols(g, stateInput(g, state))))
}

// env is the index-selection episode environment shared by the RL
// advisors: the agent adds one index per step until it stops, exhausts
// the constraint, or hits the step limit.
type env struct {
	// ctx bounds the episode's runtime-costing calls; a canceled context
	// makes envCost return 0 so the episode winds down without draining
	// full costing loops.
	ctx   context.Context
	e     *engine.Engine
	w     *workload.Workload
	c     Constraint
	kind  StateKind
	prune bool

	cands    []schema.Index
	feats    [][]float64
	selected []bool

	cfg      schema.Config
	initCost float64
	curCost  float64
	steps    int
	maxSteps int

	// cm is the advisor's learned cost model (nil before training): the
	// execution-feedback signal that lets learning-based advisors correct
	// what-if estimation error.
	cm *costmodel.Model
}

// envCost evaluates the workload under the configuration with the
// runtime stand-in: learning-based advisors are rewarded with observed
// execution cost rather than optimizer estimates — the advantage over
// what-if-driven heuristics they claim (and the paper verifies).
func (v *env) envCost(cfg schema.Config) float64 {
	c, err := workload.RuntimeCostCtx(v.ctx, v.e, v.w, cfg)
	if err != nil {
		return 0
	}
	return c
}

// newEnv prepares an episode. When pruning is disabled (Figure 13), the
// candidate pool is polluted with syntactically irrelevant noise indexes
// and only hard-infeasible actions are masked.
func newEnv(ctx context.Context, e *engine.Engine, w *workload.Workload, c Constraint, kind StateKind, opt Options, prune bool, noiseSeed int64, cm *costmodel.Model) *env {
	cands := Candidates(e.Schema(), w, opt)
	if !prune {
		cands = append(cands, noiseCandidates(e.Schema(), w, len(cands), noiseSeed)...)
	}
	v := &env{
		ctx: ctx,
		e:   e, w: w, c: c, kind: kind, prune: prune,
		cands: cands, selected: make([]bool, len(cands)),
		maxSteps: 12,
		cm:       cm,
	}
	if c.MaxIndexes > 0 && c.MaxIndexes < v.maxSteps {
		v.maxSteps = c.MaxIndexes
	}
	v.feats = make([][]float64, len(cands))
	for i, ix := range cands {
		v.feats[i] = candidateFeaturesWith(e, w, ix, cm)
	}
	v.initCost = v.envCost(nil)
	v.curCost = v.initCost
	return v
}

// noiseCandidates builds irrelevant indexes on columns the workload never
// touches — what an advisor faces without candidate pruning.
func noiseCandidates(s *schema.Schema, w *workload.Workload, n int, seed int64) []schema.Index {
	rng := rand.New(rand.NewSource(seed))
	touched := map[sqlx.ColumnRef]bool{}
	for _, c := range w.Columns() {
		touched[c] = true
	}
	var out []schema.Index
	for tries := 0; len(out) < n && tries < n*20; tries++ {
		t := s.Tables[rng.Intn(len(s.Tables))]
		col := t.Columns[rng.Intn(len(t.Columns))]
		if touched[sqlx.ColumnRef{Table: t.Name, Column: col.Name}] {
			continue
		}
		out = append(out, schema.Index{Table: t.Name, Columns: []string{col.Name}})
	}
	return out
}

// state returns the current state vector.
func (v *env) state() []float64 {
	return StateVec(v.kind, v.e, v.w, v.cfg, v.c)
}

// validMask marks selectable actions; the stop action (index len(cands))
// is always valid. With pruning enabled the mask also removes actions
// that would exceed the constraint, repeat a selection, or violate the
// multi-column precondition (leading column must be filtered or joined).
func (v *env) validMask() []bool {
	mask := make([]bool, len(v.cands)+1)
	for i, ix := range v.cands {
		if v.selected[i] {
			continue
		}
		if !v.prune {
			mask[i] = true
			continue
		}
		if !v.c.Fits(v.e.Schema(), v.cfg, ix) {
			continue
		}
		// Precondition: multi-column indexes need a predicate or join on
		// the leading column (feats[2]/feats[3] are those frequencies).
		if len(ix.Columns) > 1 && v.feats[i][2] == 0 && v.feats[i][3] == 0 {
			continue
		}
		mask[i] = true
	}
	// The terminal action is only offered when nothing else is feasible:
	// the paper's SWIRL has no explicit stop — episodes end when the
	// budget is exhausted (a large budget merely "allows advisors to
	// return more indexes").
	any := false
	for i := 0; i < len(v.cands); i++ {
		if mask[i] {
			any = true
			break
		}
	}
	mask[len(v.cands)] = !any
	return mask
}

// step applies action a (len(cands) = stop), returning the reward and
// whether the episode ended. Rewards are relative runtime-cost
// reductions (see envCost).
func (v *env) step(a int) (float64, bool) {
	v.steps++
	if a == len(v.cands) {
		return 0, true
	}
	ix := v.cands[a]
	if v.selected[a] || !v.c.Fits(v.e.Schema(), v.cfg, ix) {
		// Infeasible action (reachable only without pruning): wasted step.
		v.selected[a] = true
		return -0.02, v.steps >= v.maxSteps
	}
	v.selected[a] = true
	v.cfg = v.cfg.Add(ix)
	nc := v.envCost(v.cfg)
	r := 0.0
	if v.initCost > 0 {
		r = (v.curCost - nc) / v.initCost
	}
	v.curCost = nc
	return r, v.steps >= v.maxSteps
}

// sampleMasked draws an action from softmax(logits) restricted to the
// mask, returning the action and its log-probability.
func sampleMasked(logits *nn.Tensor, mask []bool, rng *rand.Rand) (int, float64) {
	probs := maskedProbs(logits, mask)
	u := rng.Float64()
	acc := 0.0
	last := -1
	for i, p := range probs {
		if p == 0 {
			continue
		}
		acc += p
		last = i
		if u <= acc {
			return i, logProb(probs, i)
		}
	}
	return last, logProb(probs, last)
}

// argmaxMasked returns the highest-scoring valid action.
func argmaxMasked(logits *nn.Tensor, mask []bool) int {
	best := -1
	for i := 0; i < logits.R; i++ {
		if !mask[i] {
			continue
		}
		if best < 0 || logits.W[i] > logits.W[best] {
			best = i
		}
	}
	return best
}

func maskedProbs(logits *nn.Tensor, mask []bool) []float64 {
	probs := make([]float64, logits.R)
	maxv := 0.0
	first := true
	for i := 0; i < logits.R; i++ {
		if mask[i] && (first || logits.W[i] > maxv) {
			maxv = logits.W[i]
			first = false
		}
	}
	var sum float64
	for i := 0; i < logits.R; i++ {
		if mask[i] {
			probs[i] = expSafe(logits.W[i] - maxv)
			sum += probs[i]
		}
	}
	if sum > 0 {
		for i := range probs {
			probs[i] /= sum
		}
	}
	return probs
}

func logProb(probs []float64, i int) float64 {
	p := probs[i]
	if p < 1e-12 {
		p = 1e-12
	}
	return logSafe(p)
}

// maskedCrossEntropy seeds -weight·log p(target) gradients on the masked
// softmax of logits and returns the loss.
func maskedCrossEntropy(logits *nn.Tensor, mask []bool, target int, weight float64) float64 {
	probs := maskedProbs(logits, mask)
	loss := -weight * logProb(probs, target)
	for i := range probs {
		if !mask[i] {
			continue
		}
		grad := probs[i]
		if i == target {
			grad -= 1
		}
		logits.G[i] += weight * grad
	}
	return loss
}
