package lsh

import "math/bits"

// Multi-probe sequence generation (Lv et al., "Multi-Probe LSH"). A
// query that lands in one bucket of a table is likely to find its near
// neighbors in the buckets whose signatures differ only in bits the
// query was close to flipping — bits whose hyperplane projection had a
// small magnitude. The probe sequence visits perturbed buckets in
// increasing total perturbation cost (the sum of |margin| over flipped
// bits), so each extra probe buys the next-most-likely bucket.
//
// Perturbation sets are generated with the classic shift/expand min-heap
// over margin-sorted bit positions: starting from {0} (flip the
// cheapest bit), popping a set S with maximum element j yields two
// successors — shift(S) replaces j with j+1, expand(S) adds j+1. Every
// subset is reachable exactly once and sets pop in non-decreasing
// score, so the sequence is a deterministic function of the margins.
// Ties (equal scores) break by the set's position mask, fixing the
// order bit-for-bit across runs and snapshot reloads.

// probeSet is one perturbation set: a bitmask over margin-sorted
// positions plus its summed-margin score.
type probeSet struct {
	score float64
	mask  uint64
}

// probeSetLess orders the generation heap: by score, ties by mask.
func probeSetLess(a, b probeSet) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return a.mask < b.mask
}

// probeGen enumerates the probe sequence for one (query, table) pair.
// All state lives in caller-provided scratch, so generation allocates
// nothing once the scratch is warm.
type probeGen struct {
	sig     uint64
	nbits   int
	order   []int     // bit indices sorted by margin ascending
	margins []float64 // |margin| indexed by SORTED position
	heap    []probeSet
	started bool
}

// init readies the generator. absMargins is indexed by bit; order and
// sorted are scratch slices of length ≥ nbits that the generator takes
// over for this query.
func (g *probeGen) init(sig uint64, nbits int, absMargins, sorted []float64, order []int, heap []probeSet) {
	g.sig = sig
	g.nbits = nbits
	g.order = order[:nbits]
	g.margins = sorted[:nbits]
	g.heap = heap[:0]
	g.started = false
	for b := 0; b < nbits; b++ {
		g.order[b] = b
	}
	// Insertion-sort positions by (margin, bit index): nbits ≤ 64 and
	// typically ~12, where insertion sort beats sort.Sort and allocates
	// nothing. The bit-index tie-break makes the order deterministic
	// even with duplicated margins.
	for i := 1; i < nbits; i++ {
		b := g.order[i]
		m := absMargins[b]
		j := i
		for ; j > 0; j-- {
			p := g.order[j-1]
			if absMargins[p] < m || (absMargins[p] == m && p < b) {
				break
			}
			g.order[j] = p
		}
		g.order[j] = b
	}
	for i, b := range g.order {
		g.margins[i] = absMargins[b]
	}
}

// next returns the next bucket signature to probe. The first call
// returns the unperturbed signature; subsequent calls pop perturbation
// sets in increasing cost. ok is false once every subset is exhausted.
func (g *probeGen) next() (uint64, bool) {
	if !g.started {
		g.started = true
		if g.nbits > 0 {
			g.push(probeSet{score: g.margins[0], mask: 1})
		}
		return g.sig, true
	}
	if len(g.heap) == 0 {
		return 0, false
	}
	s := g.pop()
	j := 63 - bits.LeadingZeros64(s.mask)
	if j+1 < g.nbits {
		step := g.margins[j+1]
		// shift: replace the max element j with j+1.
		g.push(probeSet{score: s.score - g.margins[j] + step, mask: s.mask&^(1<<j) | 1<<(j+1)})
		// expand: add j+1 alongside j.
		g.push(probeSet{score: s.score + step, mask: s.mask | 1<<(j+1)})
	}
	return g.sig ^ g.flips(s.mask), true
}

// flips maps a sorted-position mask to the actual signature bits to
// flip.
func (g *probeGen) flips(mask uint64) uint64 {
	var f uint64
	for m := mask; m != 0; m &= m - 1 {
		f |= 1 << uint(g.order[bits.TrailingZeros64(m)])
	}
	return f
}

// push/pop implement a small binary min-heap under probeSetLess.
func (g *probeGen) push(s probeSet) {
	g.heap = append(g.heap, s)
	i := len(g.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !probeSetLess(g.heap[i], g.heap[p]) {
			break
		}
		g.heap[i], g.heap[p] = g.heap[p], g.heap[i]
		i = p
	}
}

func (g *probeGen) pop() probeSet {
	top := g.heap[0]
	last := len(g.heap) - 1
	g.heap[0] = g.heap[last]
	g.heap = g.heap[:last]
	i := 0
	for {
		l := 2*i + 1
		if l >= len(g.heap) {
			break
		}
		m := l
		if r := l + 1; r < len(g.heap) && probeSetLess(g.heap[r], g.heap[l]) {
			m = r
		}
		if !probeSetLess(g.heap[m], g.heap[i]) {
			break
		}
		g.heap[i], g.heap[m] = g.heap[m], g.heap[i]
		i = m
	}
	return top
}
