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

// SWIRL is the workload-aware RL advisor of Kossmann et al. (EDBT 2022):
// PPO over a pointer-style policy with a fine-grained plan-derived state
// representation and invalid-action masking, under a storage constraint
// and with multi-column indexes.
type SWIRL struct {
	// Opt controls candidate generation (multi-column on by default).
	Opt Options
	// State selects the representation granularity (Figure 12 ablation).
	State StateKind
	// Pruning enables invalid-action masking (Figure 13 ablation).
	Pruning bool
	// Episodes is the number of training episodes.
	Episodes int
	// Seed drives all randomness.
	Seed int64
	// Hidden is the policy/value hidden width.
	Hidden int

	policy *scoreNet
	value  *valueNet
	cm     *costmodel.Model
	rng    *rand.Rand
}

// NewSWIRL builds a SWIRL advisor with paper-faithful defaults.
func NewSWIRL(seed int64) *SWIRL {
	return &SWIRL{
		Opt:      DefaultOptions(),
		State:    FineState,
		Pruning:  true,
		Episodes: 120,
		Seed:     seed,
		Hidden:   32,
	}
}

// Name implements Advisor.
func (a *SWIRL) Name() string { return "SWIRL" }

func (a *SWIRL) ensureNets() {
	if a.policy != nil {
		return
	}
	a.rng = rand.New(rand.NewSource(a.Seed))
	a.policy = newScoreNet(StateLen(a.State), a.Hidden, a.rng)
	a.value = newValueNet(StateLen(a.State), a.Hidden, a.rng)
}

// ppoClip is PPO's surrogate clipping range.
const ppoClip = 0.2

// Train implements Trainable with PPO: sampled rollouts, a learned value
// baseline, and a clipped surrogate objective.
func (a *SWIRL) Train(e *engine.Engine, train []*workload.Workload, c Constraint) error {
	return a.TrainCtx(context.Background(), e, train, c)
}

// TrainCtx implements CtxTrainable: training stops at the next episode
// boundary once ctx is done.
func (a *SWIRL) TrainCtx(ctx context.Context, e *engine.Engine, train []*workload.Workload, c Constraint) error {
	a.ensureNets()
	// Accumulate execution feedback into a learned cost model first: the
	// advisor's edge over what-if-driven heuristics.
	cm, err := costmodel.TrainOnWorkloads(e, train, 4, a.Seed+1)
	if err != nil {
		return err
	}
	a.cm = cm
	popt := nn.NewAdam(3e-3)
	vopt := nn.NewAdam(3e-3)
	// One graph per loop, Reset every step: the arenas reach a steady
	// state instead of being rebuilt per step.
	rollout := nn.NewGraph(false)
	update := nn.NewGraph(true)
	for ep := 0; ep < a.Episodes; ep++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		w := train[a.rng.Intn(len(train))]
		env := newEnv(ctx, e, w, c, a.State, a.Opt, a.Pruning, a.Seed+int64(ep), a.cm)
		var traj []ppoStep
		for {
			state := env.state()
			mask := env.validMask()
			rollout.Reset()
			logits := a.policy.logits(rollout, state, env.feats)
			act, logp := sampleMasked(logits, mask, a.rng)
			r, done := env.step(act)
			traj = append(traj, ppoStep{state: state, mask: mask, action: act, logp: logp, reward: r})
			if done || act == len(env.cands) {
				break
			}
		}
		a.ppoUpdate(update, traj, env.feats, popt, vopt)
	}
	return nil
}

// ppoStep is one recorded rollout step.
type ppoStep struct {
	state  []float64
	mask   []bool
	action int
	logp   float64
	reward float64
}

// ppoUpdate runs the PPO epochs over one trajectory on the recording
// graph g, which it Resets before each epoch.
func (a *SWIRL) ppoUpdate(g *nn.Graph, traj []ppoStep, feats [][]float64, popt, vopt *nn.Adam) {
	const gamma = 0.95
	// Discounted returns.
	returns := make([]float64, len(traj))
	run := 0.0
	for i := len(traj) - 1; i >= 0; i-- {
		run = traj[i].reward + gamma*run
		returns[i] = run
	}
	for epoch := 0; epoch < 2; epoch++ {
		g.Reset()
		for i, st := range traj {
			v := a.value.value(g, st.state)
			adv := returns[i] - v.W[0]
			logits := a.policy.logits(g, st.state, feats)
			probs := maskedProbs(logits, st.mask)
			ratio := expSafe(logProb(probs, st.action) - st.logp)
			// Clipped surrogate: only propagate the policy gradient
			// when the ratio is inside the trust region (or moving
			// back toward it).
			weight := -adv
			if (adv > 0 && ratio > 1+ppoClip) || (adv < 0 && ratio < 1-ppoClip) {
				weight = 0
			}
			if weight != 0 {
				maskedCrossEntropy(logits, st.mask, st.action, weight)
			}
			nn.MSELoss(v, returns[i])
		}
		g.Backward()
		a.policy.params.ClipGrads(5)
		a.value.params.ClipGrads(5)
		popt.Step(a.policy.params)
		vopt.Step(a.value.params)
	}
}

// Recommend implements Advisor with a greedy rollout of the trained
// policy (falling back to untrained-network behaviour if Train was never
// called, which mimics an undertrained agent).
func (a *SWIRL) Recommend(e *engine.Engine, w *workload.Workload, c Constraint) (schema.Config, error) {
	a.ensureNets()
	env := newEnv(context.Background(), e, w, c, a.State, a.Opt, a.Pruning, a.Seed, a.cm)
	// Local, not a field: MeasureOn workers call Recommend concurrently.
	g := nn.NewGraph(false)
	for {
		state := env.state()
		mask := env.validMask()
		g.Reset()
		logits := a.policy.logits(g, state, env.feats)
		act := argmaxMasked(logits, mask)
		if act < 0 || act == len(env.cands) {
			break
		}
		_, done := env.step(act)
		if done {
			break
		}
	}
	return validate(a.Name(), e.Schema(), env.cfg, c)
}

// ParamCount returns the number of trainable parameters.
func (a *SWIRL) ParamCount() int {
	a.ensureNets()
	return a.policy.params.Count() + a.value.params.Count()
}
