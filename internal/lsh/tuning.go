package lsh

// Tuning selects nothing: every index probes the query's own bucket in
// each table and scores the union exactly.
//
// Deprecated: kept only so existing callers compile; it goes with the
// benchmark harness's last use (ROADMAP 1(A+B)).
type Tuning struct{}

// NewHyperplaneTuned is NewHyperplane; the Tuning selects nothing.
//
// Deprecated: call NewHyperplane. Kept only so existing callers
// compile; it goes with the benchmark harness's last use (ROADMAP 1(A+B)).
func NewHyperplaneTuned(dim, bits, tables int, seed int64, _ Tuning) (*HyperplaneIndex, error) {
	return NewHyperplane(dim, bits, tables, seed)
}
