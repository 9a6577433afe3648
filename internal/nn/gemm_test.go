package nn

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/trap-repro/trap/internal/par"
)

// Naive k-ascending references: the bit-identity contract of gemm.go is
// that the blocked kernels match these exactly (==, not within epsilon).

func naiveMul(a, b []float64, m, k, n int) []float64 {
	out := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[p*n+j]
			}
			out[i*n+j] = s
		}
	}
	return out
}

func naiveAddMulNT(dA, dOut, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			var s float64
			for j := 0; j < n; j++ {
				s += dOut[i*n+j] * b[p*n+j]
			}
			dA[i*k+p] += s
		}
	}
}

func naiveAddMulTN(dB, a, dOut []float64, m, k, n int) {
	for p := 0; p < k; p++ {
		for j := 0; j < n; j++ {
			var s float64
			for i := 0; i < m; i++ {
				s += a[i*k+p] * dOut[i*n+j]
			}
			dB[p*n+j] += s
		}
	}
}

func naiveAddMulTvec(dx, a, d []float64, m, k int) {
	for p := 0; p < k; p++ {
		var s float64
		for i := 0; i < m; i++ {
			s += a[i*k+p] * d[i]
		}
		dx[p] += s
	}
}

func randFloats(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func eqBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d differs bit-wise: got %v want %v", what, i, got[i], want[i])
		}
	}
}

// gemmShapes covers the awkward cases: non-multiple-of-register-block
// row counts, 1×N, N×1, degenerate singletons, and a larger panel.
var gemmShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 1},
	{7, 1, 1},
	{1, 1, 7},
	{1, 5, 9},
	{9, 5, 1},
	{4, 4, 4},
	{5, 3, 2},
	{6, 7, 5},
	{13, 11, 17},
	{32, 16, 1},
	{33, 17, 3},
	{64, 64, 64},
}

func TestGEMMKernelsMatchNaiveBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sh := range gemmShapes {
		m, k, n := sh.m, sh.k, sh.n
		a := randFloats(rng, m*k)
		b := randFloats(rng, k*n)
		want := naiveMul(a, b, m, k, n)
		got := make([]float64, m*n)
		if n == 1 {
			matvecTo(got, a, b, m, k)
		} else {
			mulTo(got, a, b, m, k, n)
		}
		eqBits(t, "mulTo", got, want)
		// Also exercise mulTo on the n==1 shapes: both paths must agree.
		mulTo(got, a, b, m, k, n)
		eqBits(t, "mulTo(n==1)", got, want)

		dOut := randFloats(rng, m*n)
		gotA := make([]float64, m*k)
		wantA := make([]float64, m*k)
		addMulNT(gotA, dOut, b, m, k, n)
		naiveAddMulNT(wantA, dOut, b, m, k, n)
		eqBits(t, "addMulNT", gotA, wantA)

		gotB := make([]float64, k*n)
		wantB := make([]float64, k*n)
		addMulTN(gotB, a, dOut, m, k, n)
		naiveAddMulTN(wantB, a, dOut, m, k, n)
		eqBits(t, "addMulTN", gotB, wantB)

		d := randFloats(rng, m)
		gotX := make([]float64, k)
		wantX := make([]float64, k)
		addMulTvec(gotX, a, d, m, k)
		naiveAddMulTvec(wantX, a, d, m, k)
		eqBits(t, "addMulTvec", gotX, wantX)
	}
}

func TestGEMMKernelsFuzzBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 200; iter++ {
		m := 1 + rng.Intn(19)
		k := 1 + rng.Intn(19)
		n := 1 + rng.Intn(19)
		a := randFloats(rng, m*k)
		b := randFloats(rng, k*n)
		got := make([]float64, m*n)
		mulTo(got, a, b, m, k, n)
		eqBits(t, "mulTo(fuzz)", got, naiveMul(a, b, m, k, n))
		if n == 1 {
			mv := make([]float64, m)
			matvecTo(mv, a, b, m, k)
			eqBits(t, "matvecTo(fuzz)", mv, got)
		}
	}
}

// TestGEMMBitIdenticalAcrossWorkers partitions the output rows of one
// GEMM across 1, 2 and 4 workers (the way batched training distributes
// independent trajectories) and asserts the assembled product is
// bit-identical for every worker count: blocking only ever spans
// independent output elements, never one element's reduction chain.
func TestGEMMBitIdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const m, k, n = 37, 23, 29
	a := randFloats(rng, m*k)
	b := randFloats(rng, k*n)
	ref := make([]float64, m*n)
	mulTo(ref, a, b, m, k, n)
	for _, workers := range []int{1, 2, 4} {
		out := make([]float64, m*n)
		chunk := (m + workers - 1) / workers
		nChunks := (m + chunk - 1) / chunk
		err := par.ForEach(context.Background(), workers, nChunks, func(c int) error {
			lo := c * chunk
			hi := lo + chunk
			if hi > m {
				hi = m
			}
			mulTo(out[lo*n:hi*n], a[lo*k:hi*k], b, hi-lo, k, n)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		eqBits(t, "workers", out, ref)
	}
}

// TestArenaTrimReleasesOneOffPeak pins satellite behavior: a single
// outsized batch must not pin its high-water memory once steady-state
// cycles resume — within two trim windows the retained gauge falls back
// below the spike.
func TestArenaTrimReleasesOneOffPeak(t *testing.T) {
	g := NewGraph(false)
	const big = 1 << 20 // 8 MiB of float64
	g.floats(big)
	g.Reset()
	spike := ArenaRetainedBytes()
	for i := 0; i < 2*arenaTrimWindow+1; i++ {
		g.floats(64)
		g.Reset()
	}
	after := ArenaRetainedBytes()
	if after > spike-big*8/2 {
		t.Fatalf("arena retained %d bytes after trim window; spike was %d — one-off batch still pinned", after, spike)
	}
}

// TestApplyColsMatchesPerColumnApply pins ApplyCols' accumulation
// contract: one batched call over C columns must reproduce, bit for bit,
// C per-column Apply calls made in ascending order on one tape — the
// forward values and every W.G, B.G and x.G element, starting from
// non-zero gradients so the accumulation order shows. Upstream
// gradients include all-zero columns and a −0 entry, and the starting
// gradients a −0 weight and input entry, which exercise the zero-skips.
func TestApplyColsMatchesPerColumnApply(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, m := range []int{1, 3, 5} {
		for _, k := range []int{1, 7, 33} {
			for _, c := range []int{1, 2, 9} {
				checkApplyCols(t, rng, m, k, c)
			}
		}
	}
}

func checkApplyCols(t *testing.T, rng *rand.Rand, m, k, c int) {
	t.Helper()
	d := NewDense(&Params{}, "d", k, m, rng)
	copy(d.B.W, randFloats(rng, m))
	wG0, bG0 := randFloats(rng, m*k), randFloats(rng, m)
	x := randFloats(rng, k*c)
	xG0 := randFloats(rng, k*c)
	up := randFloats(rng, m*c) // upstream gradient, m×c
	for i := 0; i < m; i++ {
		up[i*c] = 0 // column 0 receives no gradient
		if c > 2 {
			up[i*c+c-1] = 0 // nor does the last column
		}
	}
	if c > 1 {
		up[1] = math.Copysign(0, -1)
	}
	// −0 accumulators: adding a skipped +0 product would flip them to +0.
	wG0[0] = math.Copysign(0, -1)
	xG0[0] = math.Copysign(0, -1)
	bits := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("m=%d k=%d C=%d: %s differs: got %v (%#x) want %v (%#x)",
				m, k, c, what, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}

	// Reference: C per-column Apply calls, ascending, on one tape.
	copy(d.W.G, wG0)
	copy(d.B.G, bG0)
	g := NewGraph(true)
	cols := make([]*Tensor, c)
	outs := make([]*Tensor, c)
	for j := range cols {
		cols[j] = NewTensor(k, 1)
		for p := 0; p < k; p++ {
			cols[j].W[p] = x[p*c+j]
			cols[j].G[p] = xG0[p*c+j]
		}
		outs[j] = d.Apply(g, cols[j])
		for i := 0; i < m; i++ {
			outs[j].G[i] = up[i*c+j]
		}
	}
	g.Backward()
	wantW := append([]float64(nil), d.W.G...)
	wantB := append([]float64(nil), d.B.G...)

	// Batched, once with a gradient-carrying input and once with a
	// constant Input, which must leave the parameter gradients alike.
	for _, constant := range []bool{false, true} {
		copy(d.W.G, wG0)
		copy(d.B.G, bG0)
		g := NewGraph(true)
		var xt *Tensor
		if constant {
			xt = g.Input(k, c)
		} else {
			xt = NewTensor(k, c)
			copy(xt.G, xG0)
		}
		copy(xt.W, x)
		out := d.ApplyCols(g, xt)
		copy(out.G, up)
		g.Backward()
		for i := 0; i < m; i++ {
			for j := 0; j < c; j++ {
				bits("forward", out.W[i*c+j], outs[j].W[i])
			}
		}
		for i := range wantW {
			bits("W.G", d.W.G[i], wantW[i])
		}
		for i := range wantB {
			bits("B.G", d.B.G[i], wantB[i])
		}
		if constant {
			continue
		}
		for p := 0; p < k; p++ {
			for j := 0; j < c; j++ {
				bits("x.G", xt.G[p*c+j], cols[j].G[p])
			}
		}
	}
}
