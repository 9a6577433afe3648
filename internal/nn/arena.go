package nn

import (
	"runtime"
	"sync/atomic"
)

// Arena counters, aggregated across every graph (exposed as gauges by
// internal/core so /metrics shows steady-state reuse and the retained
// footprint).
var (
	arenaHits     atomic.Int64
	arenaMisses   atomic.Int64
	arenaRetained atomic.Int64 // bytes currently held by arena blocks
)

// ArenaStats reports how many arena grabs were served from an already
// retained block (hits) versus grabs that had to grow the arena with a
// fresh heap block (misses), summed over all graphs since process start.
func ArenaStats() (hits, misses int64) {
	return arenaHits.Load(), arenaMisses.Load()
}

// ArenaRetainedBytes reports the total heap currently pinned by arena
// blocks across all live graphs — the gauge the Reset trim policy keeps
// bounded near each graph's recent working set. A collected graph's
// blocks leave the gauge when its arenaShare is finalized.
func ArenaRetainedBytes() int64 { return arenaRetained.Load() }

// arenaShare is one arena's part of the arenaRetained gauge, kept in its
// own small allocation that only the arena references: once the graph
// owning the arena is collected, the share's finalizer takes the part
// back out of the gauge.
type arenaShare struct{ bytes atomic.Int64 }

func releaseShare(s *arenaShare) { arenaRetained.Add(-s.bytes.Load()) }

const (
	// arenaMinBlock/arenaMaxBlock bound the geometric block growth
	// (floats, i.e. 32KB to 1MB).
	arenaMinBlock = 4096
	arenaMaxBlock = 131072
	// arenaTrimWindow is the number of Resets between trim checks: blocks
	// beyond the window's peak working set are released back to the heap,
	// so a one-off large batch cannot pin its high-water memory forever.
	arenaTrimWindow = 64
)

// arena is a chunked bump allocator over contiguous []float64 blocks.
// Grabs carve the current block front to back; Reset rewinds the
// cursor, so a graph replaying the same op sequence re-receives the
// same backing memory in the same order — that determinism is what
// keeps reused-graph training bit-identical to fresh-graph training.
type arena struct {
	blocks [][]float64
	bi     int // block being carved
	off    int // carve offset within blocks[bi]
	used   int // floats handed out since the last reset
	peak   int // max used across the current trim window
	resets int // resets since the last trim check
	share  *arenaShare
}

// retain adds delta bytes to the arena's share of the retained gauge.
func (a *arena) retain(delta int64) {
	if a.share == nil {
		a.share = new(arenaShare)
		runtime.SetFinalizer(a.share, releaseShare)
	}
	a.share.bytes.Add(delta)
	arenaRetained.Add(delta)
}

// take returns a zeroed slice of n floats carved from the arena.
func (a *arena) take(n int) []float64 {
	s := a.takeRaw(n)
	zeroFloats(s)
	return s
}

// takeRaw returns a slice of n floats carved from the arena WITHOUT
// zeroing it: on the block-reuse path the contents are whatever the
// previous cycle left behind. Only for buffers whose every element is
// assigned before any read — gradient buffers must use take, because
// backward closures accumulate into them with +=.
func (a *arena) takeRaw(n int) []float64 {
	if n == 0 {
		return nil
	}
	for a.bi < len(a.blocks) {
		if b := a.blocks[a.bi]; a.off+n <= len(b) {
			s := b[a.off : a.off+n : a.off+n]
			a.off += n
			a.used += n
			arenaHits.Add(1)
			return s
		}
		// Current block can't fit this grab: move to the next, leaving the
		// tail unused. The skip is a pure function of the grab sequence, so
		// replayed cycles skip identically.
		a.bi++
		a.off = 0
	}
	sz := arenaMinBlock
	if len(a.blocks) > 0 {
		sz = 2 * len(a.blocks[len(a.blocks)-1])
		if sz > arenaMaxBlock {
			sz = arenaMaxBlock
		}
	}
	if sz < n {
		sz = n
	}
	a.blocks = append(a.blocks, make([]float64, sz))
	a.retain(int64(sz) * 8)
	arenaMisses.Add(1)
	a.bi = len(a.blocks) - 1
	s := a.blocks[a.bi][0:n:n]
	a.off = n
	a.used += n
	return s
}

// reset rewinds the carve cursor and, every arenaTrimWindow resets,
// releases blocks beyond the window's peak working set.
func (a *arena) reset() {
	if a.used > a.peak {
		a.peak = a.used
	}
	a.used = 0
	a.bi = 0
	a.off = 0
	a.resets++
	if a.resets < arenaTrimWindow {
		return
	}
	a.resets = 0
	// Keep the shortest block prefix covering the recent peak; free the
	// rest. Freeing only trailing blocks preserves the addresses earlier
	// cycles handed out, so steady-state reuse is unaffected.
	kept, cut := 0, len(a.blocks)
	for i, b := range a.blocks {
		if kept >= a.peak {
			cut = i
			break
		}
		kept += len(b)
	}
	if kept > 2*a.peak+arenaMinBlock {
		// A one-off grab inflated an early block far beyond the window's
		// working set; the prefix rule alone would pin it forever. Drop
		// everything and let the arena regrow at normal granularity.
		cut = 0
	}
	for _, b := range a.blocks[cut:] {
		a.retain(-int64(len(b)) * 8)
	}
	a.blocks = a.blocks[:cut:cut]
	a.peak = 0
}

func zeroFloats(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// hdr returns the next recycled tensor header from the graph's header
// slab, growing the slab on first use of a slot.
func (g *Graph) hdr() *Tensor {
	var t *Tensor
	if g.nHdr < len(g.hdrs) {
		t = g.hdrs[g.nHdr]
	} else {
		t = &Tensor{}
		g.hdrs = append(g.hdrs, t)
	}
	g.nHdr++
	return t
}

// Alloc returns a zeroed r×c tensor carved from the graph's arena. The
// tensor is valid until the graph's next Reset; callers that need a
// result to outlive the graph must Clone it (or use NewTensor).
// Inference graphs (NeedsGrad false) carry no gradient buffer: G is nil,
// which halves the decode path's memory traffic. Flip NeedsGrad only
// right after a Reset, never mid-tape.
func (g *Graph) Alloc(r, c int) *Tensor {
	t := g.hdr()
	t.R, t.C = r, c
	t.W = g.ar.take(r * c)
	if g.NeedsGrad {
		t.G = g.ar.take(r * c)
	} else {
		t.G = nil
	}
	return t
}

// allocOut returns an r×c tensor whose value buffer is carved raw (not
// zeroed) — for op outputs whose forward pass assigns every element.
// The gradient buffer, when recording, is still zeroed: backward
// closures accumulate into G with +=.
func (g *Graph) allocOut(r, c int) *Tensor {
	t := g.hdr()
	t.R, t.C = r, c
	t.W = g.ar.takeRaw(r * c)
	if g.NeedsGrad {
		t.G = g.ar.take(r * c)
	} else {
		t.G = nil
	}
	return t
}

// Input returns an r×c constant operand carved raw from the arena for
// the caller to fill, valid until the next Reset. It carries no
// gradient buffer even on a recording graph, so on one it may only feed
// ops that accept a nil-G input (ApplyCols).
func (g *Graph) Input(r, c int) *Tensor {
	t := g.hdr()
	t.R, t.C = r, c
	t.W = g.ar.takeRaw(r * c)
	t.G = nil
	return t
}

// Reshape returns an r×c view of t sharing its value (and gradient)
// storage in row-major order: like Lookup it costs one tensor header,
// no copy and no backward closure.
func (g *Graph) Reshape(t *Tensor, r, c int) *Tensor {
	if r*c != len(t.W) {
		panic("nn: Reshape size mismatch")
	}
	v := g.hdr()
	v.R, v.C, v.W, v.G = r, c, t.W, t.G
	return v
}

// floats returns a zeroed scratch slice of length n from the arena,
// valid until the next Reset.
func (g *Graph) floats(n int) []float64 {
	return g.ar.take(n)
}

// floatsRaw returns an unzeroed scratch slice of length n, for scratch
// whose every element is assigned before any read.
func (g *Graph) floatsRaw(n int) []float64 {
	return g.ar.takeRaw(n)
}

// Reset clears the tape (dropping any un-run backward closures) and
// rewinds the arena: every tensor and scratch slice handed out since
// the last Reset is recycled by the next cycle's allocations, so
// callers must not retain them across a Reset.
func (g *Graph) Reset() {
	g.tape = g.tape[:0]
	g.nHdr = 0
	g.ar.reset()
}
