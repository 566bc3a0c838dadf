package lsh

import "math"

// Bounded top-k selection for the query hot path. The previous
// implementation collected every candidate and fully sorted the set per
// query; for k ≪ candidates that is wasted work and a fresh allocation
// per lookup. kSelector keeps only the k best neighbors seen so far —
// by insertion into a small sorted buffer for typical cache k, or a
// max-heap once k is large — and produces exactly the same result as
// sort-everything-then-truncate under the (distance, ID) total order.

// insertionSelectK is the largest k served by the sorted-buffer
// strategy; beyond it the selector switches to a max-heap, whose
// replace-root is O(log k) instead of O(k).
const insertionSelectK = 32

// neighborWorse reports whether a ranks strictly after b: farther, or
// equally far with a larger ID. IDs are unique within a query, so this
// is a strict total order and top-k selection has a unique answer.
func neighborWorse(a, b Neighbor) bool {
	if a.Distance != b.Distance {
		return a.Distance > b.Distance
	}
	return a.ID > b.ID
}

// kSelector accumulates neighbors, retaining the k best. The zero value
// is not usable; call reset first. buf never exceeds k entries, so a
// caller-provided buffer of capacity k makes the whole selection
// allocation-free.
type kSelector struct {
	k      int
	buf    []Neighbor
	heaped bool
}

// reset prepares the selector to keep the k best, accumulating into
// buf's backing array.
func (s *kSelector) reset(k int, buf []Neighbor) {
	s.k = k
	s.buf = buf[:0]
	s.heaped = false
}

// add offers one neighbor to the selection.
func (s *kSelector) add(n Neighbor) {
	if len(s.buf) < s.k {
		s.buf = append(s.buf, n)
		if s.k <= insertionSelectK {
			// Keep buf sorted ascending so the worst is always last.
			for i := len(s.buf) - 1; i > 0 && neighborWorse(s.buf[i-1], s.buf[i]); i-- {
				s.buf[i-1], s.buf[i] = s.buf[i], s.buf[i-1]
			}
		} else if len(s.buf) == s.k {
			s.heapify()
		}
		return
	}
	if s.heaped {
		if neighborWorse(n, s.buf[0]) {
			return // not better than the current worst
		}
		s.buf[0] = n
		s.siftDown(0, len(s.buf))
		return
	}
	if neighborWorse(n, s.buf[len(s.buf)-1]) {
		return
	}
	s.buf[len(s.buf)-1] = n
	for i := len(s.buf) - 1; i > 0 && neighborWorse(s.buf[i-1], s.buf[i]); i-- {
		s.buf[i-1], s.buf[i] = s.buf[i], s.buf[i-1]
	}
}

// bound returns the distance beyond which add refuses a neighbor
// whatever its ID: the current worst of a full selection, +Inf while
// there is still room.
func (s *kSelector) bound() float64 {
	switch {
	case len(s.buf) < s.k:
		return math.Inf(1)
	case s.heaped:
		return s.buf[0].Distance
	}
	return s.buf[len(s.buf)-1].Distance
}

// finish returns the selected neighbors in increasing (distance, ID)
// order. The returned slice aliases the reset buffer.
func (s *kSelector) finish() []Neighbor {
	if !s.heaped {
		if s.k <= insertionSelectK {
			return s.buf // insertion path keeps buf sorted
		}
		// Large k that never filled: buf is raw append order.
		s.heapify()
	}
	// Heap-sort in place: repeatedly move the max to the end.
	for end := len(s.buf) - 1; end > 0; end-- {
		s.buf[0], s.buf[end] = s.buf[end], s.buf[0]
		s.siftDown(0, end)
	}
	return s.buf
}

// heapify turns buf into a max-heap under neighborWorse.
func (s *kSelector) heapify() {
	s.heaped = true
	for i := len(s.buf)/2 - 1; i >= 0; i-- {
		s.siftDown(i, len(s.buf))
	}
}

// siftDown restores the max-heap property for the subtree rooted at i,
// considering only buf[:end].
func (s *kSelector) siftDown(i, end int) {
	for {
		l := 2*i + 1
		if l >= end {
			return
		}
		worst := l
		if r := l + 1; r < end && neighborWorse(s.buf[r], s.buf[l]) {
			worst = r
		}
		if !neighborWorse(s.buf[worst], s.buf[i]) {
			return
		}
		s.buf[i], s.buf[worst] = s.buf[worst], s.buf[i]
		i = worst
	}
}
