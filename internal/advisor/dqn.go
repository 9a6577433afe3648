package advisor

import (
	"context"
	"math/rand"

	"github.com/trap-repro/trap/internal/costmodel"
	"github.com/trap-repro/trap/internal/engine"
	"github.com/trap-repro/trap/internal/nn"
	"github.com/trap-repro/trap/internal/schema"
	"github.com/trap-repro/trap/internal/workload"
)

// dqnCore is the shared deep-Q machinery of DRLindex and DQN: a
// (state, candidate) Q-network trained from a replay buffer with
// ε-greedy exploration.
type dqnCore struct {
	kind    StateKind
	opt     Options
	prune   bool
	hidden  int
	epsilon float64
	gamma   float64

	q   *scoreNet
	cm  *costmodel.Model
	rng *rand.Rand
}

type transition struct {
	state    []float64
	feats    [][]float64
	mask     []bool
	action   int
	reward   float64
	next     []float64
	nextMask []bool
	done     bool
}

func (d *dqnCore) ensure(seed int64) {
	if d.q != nil {
		return
	}
	d.rng = rand.New(rand.NewSource(seed))
	d.q = newScoreNet(StateLen(d.kind), d.hidden, d.rng)
}

// train runs DQN episodes over the training workloads, stopping at the
// next episode boundary once ctx is done.
func (d *dqnCore) train(ctx context.Context, e *engine.Engine, train []*workload.Workload, c Constraint, episodes int, seed int64) error {
	d.ensure(seed)
	if cm, err := costmodel.TrainOnWorkloads(e, train, 4, seed+1); err == nil {
		d.cm = cm
	}
	opt := nn.NewAdam(2e-3)
	// One graph per loop, Reset every step: the arenas reach a steady
	// state instead of being rebuilt per step.
	actG := nn.NewGraph(false)
	targetG := nn.NewGraph(false)
	updateG := nn.NewGraph(true)
	var buffer []transition
	eps := d.epsilon
	for ep := 0; ep < episodes; ep++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		w := train[d.rng.Intn(len(train))]
		env := newEnv(ctx, e, w, c, d.kind, d.opt, d.prune, seed+int64(ep), d.cm)
		for {
			state := env.state()
			mask := env.validMask()
			var act int
			if d.rng.Float64() < eps {
				act = randomValid(mask, d.rng)
			} else {
				actG.Reset()
				act = argmaxMasked(d.q.logits(actG, state, env.feats), mask)
			}
			if act < 0 {
				break
			}
			r, done := env.step(act)
			next := env.state()
			nextMask := env.validMask()
			buffer = append(buffer, transition{
				state: state, feats: env.feats, mask: mask, action: act,
				reward: r, next: next, nextMask: nextMask,
				done: done || act == len(env.cands),
			})
			if len(buffer) > 2000 {
				buffer = buffer[len(buffer)-2000:]
			}
			if done || act == len(env.cands) {
				break
			}
		}
		if len(buffer) >= 8 {
			d.replay(updateG, targetG, buffer, opt)
		}
		if eps > 0.05 {
			eps *= 0.98
		}
	}
	return nil
}

// replay runs one replay update of 8 sampled transitions on the
// recording graph g, scoring bootstrap targets on the inference graph
// gt; it Resets both before use.
func (d *dqnCore) replay(g, gt *nn.Graph, buffer []transition, opt *nn.Adam) {
	g.Reset()
	for k := 0; k < 8; k++ {
		tr := buffer[d.rng.Intn(len(buffer))]
		target := tr.reward
		if !tr.done {
			gt.Reset()
			nq := d.q.logits(gt, tr.next, tr.feats)
			na := argmaxMasked(nq, tr.nextMask)
			if na >= 0 {
				target += d.gamma * nq.W[na]
			}
		}
		logits := d.q.logits(g, tr.state, tr.feats)
		// MSE on the chosen action's Q value.
		diff := logits.W[tr.action] - target
		logits.G[tr.action] += diff
	}
	g.Backward()
	d.q.params.ClipGrads(5)
	opt.Step(d.q.params)
}

// recommend runs a greedy Q rollout.
func (d *dqnCore) recommend(e *engine.Engine, w *workload.Workload, c Constraint, seed int64) schema.Config {
	d.ensure(seed)
	env := newEnv(context.Background(), e, w, c, d.kind, d.opt, d.prune, seed, d.cm)
	// Local, not a field: MeasureOn workers call Recommend concurrently.
	g := nn.NewGraph(false)
	for {
		state := env.state()
		mask := env.validMask()
		g.Reset()
		act := argmaxMasked(d.q.logits(g, state, env.feats), mask)
		if act < 0 || act == len(env.cands) {
			break
		}
		if _, done := env.step(act); done {
			break
		}
	}
	return env.cfg
}

func randomValid(mask []bool, rng *rand.Rand) int {
	var valid []int
	for i, ok := range mask {
		if ok {
			valid = append(valid, i)
		}
	}
	if len(valid) == 0 {
		return -1
	}
	return valid[rng.Intn(len(valid))]
}

// DRLindex is the cluster-database DQN advisor of Sadri et al. (IDEAS
// 2020): a coarse column-matrix state, single-column candidates only, and
// a #index constraint.
type DRLindex struct {
	// State selects the representation (coarse by default; Figure 12).
	State StateKind
	// Episodes is the number of training episodes.
	Episodes int
	// Seed drives all randomness.
	Seed int64

	core *dqnCore
}

// NewDRLindex builds a DRLindex advisor with paper-faithful defaults.
func NewDRLindex(seed int64) *DRLindex {
	return &DRLindex{State: CoarseState, Episodes: 120, Seed: seed}
}

// Name implements Advisor.
func (a *DRLindex) Name() string { return "DRLindex" }

func (a *DRLindex) ensure() {
	if a.core == nil {
		a.core = &dqnCore{
			kind:    a.State,
			opt:     Options{MultiColumn: false, Interaction: true},
			prune:   true,
			hidden:  32,
			epsilon: 0.5,
			gamma:   0.95,
		}
	}
}

// Train implements Trainable.
func (a *DRLindex) Train(e *engine.Engine, train []*workload.Workload, c Constraint) error {
	return a.TrainCtx(context.Background(), e, train, c)
}

// TrainCtx implements CtxTrainable: training stops at the next episode
// boundary once ctx is done.
func (a *DRLindex) TrainCtx(ctx context.Context, e *engine.Engine, train []*workload.Workload, c Constraint) error {
	a.ensure()
	return a.core.train(ctx, e, train, c, a.Episodes, a.Seed)
}

// Recommend implements Advisor.
func (a *DRLindex) Recommend(e *engine.Engine, w *workload.Workload, c Constraint) (schema.Config, error) {
	a.ensure()
	return validate(a.Name(), e.Schema(), a.core.recommend(e, w, c, a.Seed), c)
}

// DQN is the index advisor of Lan et al. (CIKM 2020): deep Q-learning
// with five heuristic candidate rules (equality, range, join and
// order/group columns plus two-column combinations — our Candidates
// generator), multi-column indexes, and a #index constraint.
type DQN struct {
	// State selects the representation (fine-ish by default; Figure 12).
	State StateKind
	// Pruning enables the heuristic candidate rules (Figure 13); when
	// disabled the pool is polluted with irrelevant indexes.
	Pruning bool
	// Episodes is the number of training episodes.
	Episodes int
	// Seed drives all randomness.
	Seed int64

	core *dqnCore
}

// NewDQN builds a DQN advisor with paper-faithful defaults.
func NewDQN(seed int64) *DQN {
	return &DQN{State: FineState, Pruning: true, Episodes: 120, Seed: seed}
}

// Name implements Advisor.
func (a *DQN) Name() string { return "DQN" }

func (a *DQN) ensure() {
	if a.core == nil {
		a.core = &dqnCore{
			kind:    a.State,
			opt:     DefaultOptions(),
			prune:   a.Pruning,
			hidden:  32,
			epsilon: 0.5,
			gamma:   0.95,
		}
	}
}

// Train implements Trainable.
func (a *DQN) Train(e *engine.Engine, train []*workload.Workload, c Constraint) error {
	return a.TrainCtx(context.Background(), e, train, c)
}

// TrainCtx implements CtxTrainable: training stops at the next episode
// boundary once ctx is done.
func (a *DQN) TrainCtx(ctx context.Context, e *engine.Engine, train []*workload.Workload, c Constraint) error {
	a.ensure()
	return a.core.train(ctx, e, train, c, a.Episodes, a.Seed)
}

// Recommend implements Advisor.
func (a *DQN) Recommend(e *engine.Engine, w *workload.Workload, c Constraint) (schema.Config, error) {
	a.ensure()
	return validate(a.Name(), e.Schema(), a.core.recommend(e, w, c, a.Seed), c)
}
