package lsh

import "math"

// Bounded top-k selection for the query hot path. kSelector keeps only
// the k best neighbors seen so far in a small sorted buffer, instead of
// collecting every candidate and sorting the set per query, and
// produces exactly the same result as sort-everything-then-truncate
// under the (distance, ID) total order. Every caller votes with a small
// k (4 in every program), where an insertion costs a few compares; a
// large k is served by the same buffer, correctly if not fast.

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
	k   int
	buf []Neighbor // sorted ascending, so the worst is always last
}

// reset prepares the selector to keep the k best, accumulating into
// buf's backing array.
func (s *kSelector) reset(k int, buf []Neighbor) {
	s.k = k
	s.buf = buf[:0]
}

// add offers one neighbor to the selection.
func (s *kSelector) add(n Neighbor) {
	switch {
	case len(s.buf) < s.k:
		s.buf = append(s.buf, n)
	case neighborWorse(n, s.buf[len(s.buf)-1]):
		return // not better than the current worst
	default:
		s.buf[len(s.buf)-1] = n
	}
	for i := len(s.buf) - 1; i > 0 && neighborWorse(s.buf[i-1], s.buf[i]); i-- {
		s.buf[i-1], s.buf[i] = s.buf[i], s.buf[i-1]
	}
}

// bound returns the distance beyond which add refuses a neighbor
// whatever its ID: the current worst of a full selection, +Inf while
// there is still room.
func (s *kSelector) bound() float64 {
	if len(s.buf) < s.k {
		return math.Inf(1)
	}
	return s.buf[len(s.buf)-1].Distance
}

// finish returns the selected neighbors in increasing (distance, ID)
// order. The returned slice aliases the reset buffer.
func (s *kSelector) finish() []Neighbor {
	return s.buf
}
