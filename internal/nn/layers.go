package nn

import (
	"math"
	"math/rand"
)

// Params is a named registry of trainable tensors, used by the optimizer
// and for parameter counting (Table IV).
type Params struct {
	names   []string
	tensors []*Tensor
}

// Add registers a tensor under a name and returns it.
func (p *Params) Add(name string, t *Tensor) *Tensor {
	p.names = append(p.names, name)
	p.tensors = append(p.tensors, t)
	return t
}

// Merge registers every tensor of another registry under a prefix.
func (p *Params) Merge(prefix string, o *Params) {
	for i, t := range o.tensors {
		p.Add(prefix+"/"+o.names[i], t)
	}
}

// Tensors returns the registered tensors.
func (p *Params) Tensors() []*Tensor { return p.tensors }

// Count returns the total number of scalar parameters.
func (p *Params) Count() int {
	n := 0
	for _, t := range p.tensors {
		n += t.Size()
	}
	return n
}

// State deep-copies every parameter's values (for snapshot/restore, e.g.
// re-using a pretrained encoder across several RL runs).
func (p *Params) State() [][]float64 {
	out := make([][]float64, len(p.tensors))
	for i, t := range p.tensors {
		out[i] = append([]float64(nil), t.W...)
	}
	return out
}

// SetState restores values captured by State.
func (p *Params) SetState(state [][]float64) {
	if len(state) != len(p.tensors) {
		panic("nn: SetState length mismatch")
	}
	for i, t := range p.tensors {
		copy(t.W, state[i])
	}
}

// ZeroGrads clears all gradients.
func (p *Params) ZeroGrads() {
	for _, t := range p.tensors {
		t.ZeroGrad()
	}
}

// ClipGrads scales gradients so the global L2 norm is at most maxNorm,
// returning the pre-clip norm.
func (p *Params) ClipGrads(maxNorm float64) float64 {
	var sq float64
	for _, t := range p.tensors {
		for _, g := range t.G {
			sq += g * g
		}
	}
	if sq == 0 {
		// All-zero gradients (e.g. a skipped workload): nothing to scale.
		return 0
	}
	norm := math.Sqrt(sq)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, t := range p.tensors {
			for i := range t.G {
				t.G[i] *= scale
			}
		}
	}
	return norm
}

// glorot returns the Glorot-uniform init scale for a fanIn×fanOut layer.
func glorot(fanIn, fanOut int) float64 {
	return math.Sqrt(6.0 / float64(fanIn+fanOut))
}

// Dense is a fully connected layer y = act(W·x + b).
type Dense struct {
	W, B *Tensor
}

// NewDense builds a Dense layer with Glorot init, registering its
// parameters under name.
func NewDense(p *Params, name string, in, out int, rng *rand.Rand) *Dense {
	d := &Dense{
		W: RandTensor(out, in, glorot(in, out), rng),
		B: NewTensor(out, 1),
	}
	p.Add(name+".W", d.W)
	p.Add(name+".B", d.B)
	return d
}

// Apply computes W·x + b.
func (d *Dense) Apply(g *Graph, x *Tensor) *Tensor {
	return g.Add(g.Mul(d.W, x), d.B)
}

// ApplyCols computes W·x_j + b for every column x_j of the k×C matrix x
// with one GEMM and returns the m×C matrix of results. Values and every
// gradient bit equal C Apply calls made on the columns in ascending
// order: the forward pass is mulTo's k-ascending sums plus the bias, and
// the backward pass visits the columns in descending order (the order a
// tape replays those calls), adding each column's contribution to W.G,
// B.G and x.G separately with addOuter's and Mul's zero-skips. One
// addMulNT over all columns would sum each weight gradient in another
// order and change its rounding. x may be a constant Input (nil G), in
// which case no input gradient is computed.
func (d *Dense) ApplyCols(g *Graph, x *Tensor) *Tensor {
	m, k, n := d.W.R, d.W.C, x.C
	if x.R != k {
		panic("nn: ApplyCols shape mismatch")
	}
	out := g.allocOut(m, n)
	mulTo(out.W, d.W.W, x.W, m, k, n)
	for i, bv := range d.B.W {
		row := out.W[i*n : i*n+n]
		for j := range row {
			row[j] += bv
		}
	}
	if !g.NeedsGrad {
		return out
	}
	// Per-column gather scratch, so each column runs through the same
	// contiguous kernels a per-column Mul uses.
	dcol := g.floatsRaw(m)
	xcol := g.floatsRaw(k)
	var gxcol []float64
	if x.G != nil {
		gxcol = g.floatsRaw(k)
	}
	g.addBack(func() {
		for j := n - 1; j >= 0; j-- {
			for i := range dcol {
				dcol[i] = out.G[i*n+j]
				d.B.G[i] += dcol[i]
			}
			if allZeroF(dcol) {
				continue
			}
			for p := range xcol {
				xcol[p] = x.W[p*n+j]
			}
			addOuter(d.W.G, dcol, xcol)
			if gxcol == nil {
				continue
			}
			for p := range gxcol {
				gxcol[p] = x.G[p*n+j]
			}
			addMulTvec(gxcol, d.W.W, dcol, m, k)
			for p, v := range gxcol {
				x.G[p*n+j] = v
			}
		}
	})
	return out
}

// Embedding maps token ids to dense vectors.
type Embedding struct {
	Table *Tensor // vocab × dim
}

// NewEmbedding builds an embedding table.
func NewEmbedding(p *Params, name string, vocab, dim int, rng *rand.Rand) *Embedding {
	e := &Embedding{Table: RandTensor(vocab, dim, 0.1, rng)}
	p.Add(name+".table", e.Table)
	return e
}

// Lookup returns the embedding of token id as a column vector.
func (e *Embedding) Lookup(g *Graph, id int) *Tensor { return g.Lookup(e.Table, id) }

// Dim returns the embedding dimension.
func (e *Embedding) Dim() int { return e.Table.C }

// Vocab returns the vocabulary size.
func (e *Embedding) Vocab() int { return e.Table.R }

// GRUCell is a gated recurrent unit cell.
type GRUCell struct {
	Wz, Uz, Bz *Tensor
	Wr, Ur, Br *Tensor
	Wh, Uh, Bh *Tensor
	Hidden     int
}

// NewGRUCell builds a GRU cell mapping (in, hidden) -> hidden.
func NewGRUCell(p *Params, name string, in, hidden int, rng *rand.Rand) *GRUCell {
	sw := glorot(in, hidden)
	su := glorot(hidden, hidden)
	c := &GRUCell{
		Wz: RandTensor(hidden, in, sw, rng), Uz: RandTensor(hidden, hidden, su, rng), Bz: NewTensor(hidden, 1),
		Wr: RandTensor(hidden, in, sw, rng), Ur: RandTensor(hidden, hidden, su, rng), Br: NewTensor(hidden, 1),
		Wh: RandTensor(hidden, in, sw, rng), Uh: RandTensor(hidden, hidden, su, rng), Bh: NewTensor(hidden, 1),
		Hidden: hidden,
	}
	p.Add(name+".Wz", c.Wz)
	p.Add(name+".Uz", c.Uz)
	p.Add(name+".Bz", c.Bz)
	p.Add(name+".Wr", c.Wr)
	p.Add(name+".Ur", c.Ur)
	p.Add(name+".Br", c.Br)
	p.Add(name+".Wh", c.Wh)
	p.Add(name+".Uh", c.Uh)
	p.Add(name+".Bh", c.Bh)
	return c
}

// Step advances the cell one timestep: h_t = GRU(x_t, h_{t-1}).
//
// The whole cell is one fused op: the gate pre-activations are computed
// with the deterministic row-dot kernels of gemm.go into arena scratch
// and a single backward closure propagates every gradient, replacing
// the ~17 tensors and ~15 tape entries the op-composed formulation
// recorded per step. Accumulation order inside both passes is fixed, so
// results are bit-identical across rollout worker counts.
func (c *GRUCell) Step(g *Graph, x, hPrev *Tensor) *Tensor {
	h := c.Hidden
	in := x.R
	out := g.allocOut(h, 1)
	z := g.floatsRaw(h)
	r := g.floatsRaw(h)
	ht := g.floatsRaw(h)
	rh := g.floatsRaw(h)
	for i := 0; i < h; i++ {
		az := dot(c.Wz.W[i*in:i*in+in], x.W) + dot(c.Uz.W[i*h:i*h+h], hPrev.W) + c.Bz.W[i]
		ar := dot(c.Wr.W[i*in:i*in+in], x.W) + dot(c.Ur.W[i*h:i*h+h], hPrev.W) + c.Br.W[i]
		z[i] = 1 / (1 + math.Exp(-az))
		r[i] = 1 / (1 + math.Exp(-ar))
		rh[i] = r[i] * hPrev.W[i]
	}
	for i := 0; i < h; i++ {
		ah := dot(c.Wh.W[i*in:i*in+in], x.W) + dot(c.Uh.W[i*h:i*h+h], rh) + c.Bh.W[i]
		ht[i] = math.Tanh(ah)
		out.W[i] = (1-z[i])*hPrev.W[i] + z[i]*ht[i]
	}
	if !g.NeedsGrad {
		return out
	}
	// Backward scratch: daz/dar/dah are assigned before use and drh is
	// zeroed explicitly inside the closure, so none needs a zeroed carve.
	daz := g.floatsRaw(h)
	dar := g.floatsRaw(h)
	dah := g.floatsRaw(h)
	drh := g.floatsRaw(h)
	g.addBack(func() {
		dh := out.G
		for i := 0; i < h; i++ {
			dah[i] = dh[i] * z[i] * (1 - ht[i]*ht[i])
			daz[i] = dh[i] * (ht[i] - hPrev.W[i]) * z[i] * (1 - z[i])
			hPrev.G[i] += dh[i] * (1 - z[i])
		}
		// drh = Uhᵀ·dah, split into the reset gate and the carry path.
		zeroFloats(drh)
		addMulTvec(drh, c.Uh.W, dah, h, h)
		for i := 0; i < h; i++ {
			hPrev.G[i] += drh[i] * r[i]
			dar[i] = drh[i] * hPrev.W[i] * r[i] * (1 - r[i])
		}
		addOuter(c.Wz.G, daz, x.W)
		addOuter(c.Wr.G, dar, x.W)
		addOuter(c.Wh.G, dah, x.W)
		addOuter(c.Uz.G, daz, hPrev.W)
		addOuter(c.Ur.G, dar, hPrev.W)
		addOuter(c.Uh.G, dah, rh)
		addVec(c.Bz.G, daz)
		addVec(c.Br.G, dar)
		addVec(c.Bh.G, dah)
		addMulTvec(x.G, c.Wz.W, daz, h, in)
		addMulTvec(x.G, c.Wr.W, dar, h, in)
		addMulTvec(x.G, c.Wh.W, dah, h, in)
		addMulTvec(hPrev.G, c.Uz.W, daz, h, h)
		addMulTvec(hPrev.G, c.Ur.W, dar, h, h)
	})
	return out
}

// InitState returns a zero hidden state.
func (c *GRUCell) InitState() *Tensor { return NewTensor(c.Hidden, 1) }

// BiGRU is a bidirectional GRU encoder: a forward and a backward cell
// whose per-position states are concatenated (Section IV-A, Step 1).
type BiGRU struct {
	Fwd, Bwd *GRUCell
}

// NewBiGRU builds the encoder pair.
func NewBiGRU(p *Params, name string, in, hidden int, rng *rand.Rand) *BiGRU {
	return &BiGRU{
		Fwd: NewGRUCell(p, name+".fwd", in, hidden, rng),
		Bwd: NewGRUCell(p, name+".bwd", in, hidden, rng),
	}
}

// Encode maps a sequence of input vectors to per-position states
// h_i = [h^f_i ; h^b_i] of size 2·hidden.
func (b *BiGRU) Encode(g *Graph, xs []*Tensor) []*Tensor {
	n := len(xs)
	fw := make([]*Tensor, n)
	bw := make([]*Tensor, n)
	h := b.Fwd.InitState()
	for i := 0; i < n; i++ {
		h = b.Fwd.Step(g, xs[i], h)
		fw[i] = h
	}
	h = b.Bwd.InitState()
	for i := n - 1; i >= 0; i-- {
		h = b.Bwd.Step(g, xs[i], h)
		bw[i] = h
	}
	out := make([]*Tensor, n)
	for i := 0; i < n; i++ {
		out[i] = g.Concat(fw[i], bw[i])
	}
	return out
}

// EncodePacked is Encode returning the packed per-position state matrix
// H (2·hidden × n) whose column i is [h^f_i ; h^b_i] — the layout the
// prepared attention (AttCache) and the decoder bridge consume
// directly, replacing n per-position Concat tensors with one matrix.
func (b *BiGRU) EncodePacked(g *Graph, xs []*Tensor) *Tensor {
	n := len(xs)
	fw := make([]*Tensor, n)
	bw := make([]*Tensor, n)
	h := g.Alloc(b.Fwd.Hidden, 1)
	for i := 0; i < n; i++ {
		h = b.Fwd.Step(g, xs[i], h)
		fw[i] = h
	}
	h = g.Alloc(b.Bwd.Hidden, 1)
	for i := n - 1; i >= 0; i-- {
		h = b.Bwd.Step(g, xs[i], h)
		bw[i] = h
	}
	return g.PackColsPair(fw, bw)
}
