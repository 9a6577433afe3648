package advisor

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/trap-repro/trap/internal/nn"
)

// The reference RL path: the per-candidate scoring loop, the heap-input
// value head and the fresh-graph-per-step update loops that the batched
// logits (one ApplyCols GEMM per layer) and the reused, Reset graphs
// replaced. The tests below hold the production path to these bit for
// bit.

// logitsRef scores each candidate with its own Apply calls.
func (n *scoreNet) logitsRef(g *nn.Graph, state []float64, feats [][]float64) *nn.Tensor {
	sv := nn.Vector(state...)
	parts := make([]*nn.Tensor, 0, len(feats)+1)
	for _, f := range feats {
		in := nn.Vector(append(append([]float64(nil), state...), f...)...)
		parts = append(parts, n.h2.Apply(g, g.Tanh(n.h1.Apply(g, in))))
	}
	parts = append(parts, n.stop2.Apply(g, g.Tanh(n.stop1.Apply(g, sv))))
	return g.Concat(parts...)
}

func (n *valueNet) valueRef(g *nn.Graph, state []float64) *nn.Tensor {
	return n.h2.Apply(g, g.Tanh(n.h1.Apply(g, nn.Vector(state...))))
}

// ppoUpdateRef is ppoUpdate on a fresh graph per epoch.
func (a *SWIRL) ppoUpdateRef(traj []ppoStep, feats [][]float64, popt, vopt *nn.Adam) {
	gamma := 0.95
	returns := make([]float64, len(traj))
	run := 0.0
	for i := len(traj) - 1; i >= 0; i-- {
		run = traj[i].reward + gamma*run
		returns[i] = run
	}
	for epoch := 0; epoch < 2; epoch++ {
		g := nn.NewGraph(true)
		for i, st := range traj {
			v := a.value.valueRef(g, st.state)
			adv := returns[i] - v.W[0]
			logits := a.policy.logitsRef(g, st.state, feats)
			probs := maskedProbs(logits, st.mask)
			ratio := expSafe(logProb(probs, st.action) - st.logp)
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

// replayRef is replay on a fresh graph per update and per target.
func (d *dqnCore) replayRef(buffer []transition, opt *nn.Adam) {
	g := nn.NewGraph(true)
	for k := 0; k < 8; k++ {
		tr := buffer[d.rng.Intn(len(buffer))]
		target := tr.reward
		if !tr.done {
			nq := d.q.logitsRef(nn.NewGraph(false), tr.next, tr.feats)
			if na := argmaxMasked(nq, tr.nextMask); na >= 0 {
				target += d.gamma * nq.W[na]
			}
		}
		logits := d.q.logitsRef(g, tr.state, tr.feats)
		logits.G[tr.action] += logits.W[tr.action] - target
	}
	g.Backward()
	d.q.params.ClipGrads(5)
	opt.Step(d.q.params)
}

func sameParams(t *testing.T, what string, got, want *nn.Params) {
	t.Helper()
	gt, wt := got.Tensors(), want.Tensors()
	for i := range wt {
		for j := range wt[i].W {
			if math.Float64bits(gt[i].W[j]) != math.Float64bits(wt[i].W[j]) {
				t.Fatalf("%s: tensor %d element %d: got %v want %v", what, i, j, gt[i].W[j], wt[i].W[j])
			}
		}
	}
}

// TestSWIRLUpdateMatchesReference runs two PPO updates from one seed
// through the batched path on one reused graph and through the
// reference path, and requires bit-identical logits and parameters.
func TestSWIRLUpdateMatchesReference(t *testing.T) {
	f := newFixture(t)
	a, ref := NewSWIRL(5), NewSWIRL(5)
	a.ensureNets()
	ref.ensureNets()
	env := newEnv(context.Background(), f.e, f.w, f.storageConstraint(), a.State, a.Opt, true, 1, nil)
	rng := rand.New(rand.NewSource(9))
	rollout := nn.NewGraph(false)
	var traj []ppoStep
	for {
		state, mask := env.state(), env.validMask()
		rollout.Reset()
		logits := a.policy.logits(rollout, state, env.feats)
		want := ref.policy.logitsRef(nn.NewGraph(false), state, env.feats)
		for i := range want.W {
			if math.Float64bits(logits.W[i]) != math.Float64bits(want.W[i]) {
				t.Fatalf("step %d logit %d: got %v want %v", len(traj), i, logits.W[i], want.W[i])
			}
		}
		act, logp := sampleMasked(logits, mask, rng)
		r, done := env.step(act)
		traj = append(traj, ppoStep{state: state, mask: mask, action: act, logp: logp, reward: r})
		if done || act == len(env.cands) {
			break
		}
	}
	if len(traj) < 2 {
		t.Fatalf("trajectory of %d steps is too short to exercise the update", len(traj))
	}
	popt, vopt := nn.NewAdam(3e-3), nn.NewAdam(3e-3)
	rpopt, rvopt := nn.NewAdam(3e-3), nn.NewAdam(3e-3)
	g := nn.NewGraph(true)
	for round := 0; round < 2; round++ {
		a.ppoUpdate(g, traj, env.feats, popt, vopt)
		ref.ppoUpdateRef(traj, env.feats, rpopt, rvopt)
	}
	sameParams(t, "policy", a.policy.params, ref.policy.params)
	sameParams(t, "value", a.value.params, ref.value.params)
}

// TestDQNReplayMatchesReference runs two replay updates from one seed
// through the batched path on reused graphs and through the reference
// path, and requires bit-identical parameters.
func TestDQNReplayMatchesReference(t *testing.T) {
	f := newFixture(t)
	d, ref := NewDQN(13), NewDQN(13)
	d.ensure()
	ref.ensure()
	d.core.ensure(13)
	ref.core.ensure(13)
	env := newEnv(context.Background(), f.e, f.w, Constraint{MaxIndexes: 4}, d.State, d.core.opt, true, 1, nil)
	rng := rand.New(rand.NewSource(9))
	var buffer []transition
	for {
		state, mask := env.state(), env.validMask()
		act := randomValid(mask, rng)
		if act < 0 {
			break
		}
		r, done := env.step(act)
		done = done || act == len(env.cands)
		buffer = append(buffer, transition{
			state: state, feats: env.feats, mask: mask, action: act,
			reward: r, next: env.state(), nextMask: env.validMask(), done: done,
		})
		if done {
			break
		}
	}
	opt, ropt := nn.NewAdam(2e-3), nn.NewAdam(2e-3)
	g, gt := nn.NewGraph(true), nn.NewGraph(false)
	for round := 0; round < 2; round++ {
		d.core.replay(g, gt, buffer, opt)
		ref.core.replayRef(buffer, ropt)
	}
	sameParams(t, "q", d.core.q.params, ref.core.q.params)
}

// TestRLRecommendUnchanged pins what SWIRL, DRLindex and DQN recommend
// at fixed seeds after a short training run, together with a hash of the
// trained parameters' bits — the values the per-candidate,
// fresh-graph-per-step path produced. They were recorded on amd64;
// other architectures may fuse multiply-adds and round differently.
func TestRLRecommendUnchanged(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens recorded on amd64, running on %s", runtime.GOARCH)
	}
	f := newFixture(t)
	sw, dr, dq := NewSWIRL(7), NewDRLindex(11), NewDQN(13)
	sw.Episodes, dr.Episodes, dq.Episodes = 12, 12, 12
	storage := f.storageConstraint()
	for _, tc := range []struct {
		a      Trainable
		c      Constraint
		params func() []*nn.Params
		want   string
		hash   uint64
	}{
		{sw, storage, func() []*nn.Params { return []*nn.Params{sw.policy.params, sw.value.params} },
			"customer(c_nationkey,c_phone);customer(c_phone,c_custkey);lineitem(l_partkey,l_linestatus);nation(n_nationkey,n_name);nation(n_regionkey);nation(n_regionkey,n_name);orders(o_orderdate,o_clerk);part(p_size,p_container);part(p_size,p_partkey);region(r_name,r_regionkey);supplier(s_nationkey,s_phone);supplier(s_suppkey,s_name)",
			0xf5029a0ea31a73cf},
		{dr, Constraint{MaxIndexes: 3}, func() []*nn.Params { return []*nn.Params{dr.core.q.params} },
			"lineitem(l_suppkey);orders(o_clerk);part(p_partkey)",
			0x9862723813b0e7ad},
		{dq, Constraint{MaxIndexes: 4}, func() []*nn.Params { return []*nn.Params{dq.core.q.params} },
			"customer(c_phone,c_nationkey);orders(o_totalprice);part(p_partkey,p_container);supplier(s_name,s_suppkey)",
			0xcd7db853152a6e83},
	} {
		if err := tc.a.Train(f.e, f.train, tc.c); err != nil {
			t.Fatal(err)
		}
		cfg, err := tc.a.Recommend(f.e, f.w, tc.c)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Key() != tc.want {
			t.Errorf("%s recommends %q, want %q", tc.a.Name(), cfg.Key(), tc.want)
		}
		if h := paramBitsHash(tc.params()...); h != tc.hash {
			t.Errorf("%s trained parameters hash to %#x, want %#x", tc.a.Name(), h, tc.hash)
		}
	}
}

// paramBitsHash is the FNV-1a hash of every parameter value's bits.
func paramBitsHash(ps ...*nn.Params) uint64 {
	h := uint64(14695981039346656037)
	for _, p := range ps {
		for _, t := range p.Tensors() {
			for _, v := range t.W {
				h ^= math.Float64bits(v)
				h *= 1099511628211
			}
		}
	}
	return h
}

// TestLogitsAllocBudget gates the allocations of a steady-state logits
// call on a reused, Reset graph: the packed input, every layer output
// and the gradient buffers come from the graph's arena, leaving only the
// backward closures and Concat's argument slice. Allocation counts are
// deterministic; lower a budget when a change beats it.
func TestLogitsAllocBudget(t *testing.T) {
	f := newFixture(t)
	a := NewSWIRL(5)
	a.ensureNets()
	env := newEnv(context.Background(), f.e, f.w, f.storageConstraint(), a.State, a.Opt, true, 1, nil)
	state := env.state()
	for _, tc := range []struct {
		needsGrad bool
		budget    float64
	}{{false, 4}, {true, 8}} {
		g := nn.NewGraph(tc.needsGrad)
		allocs := testing.AllocsPerRun(50, func() {
			g.Reset()
			a.policy.logits(g, state, env.feats)
		})
		if allocs > tc.budget {
			t.Errorf("logits over %d candidates (NeedsGrad %v) made %v allocations, budget %v",
				len(env.feats), tc.needsGrad, allocs, tc.budget)
		}
	}
}
