package lsh

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func labelsFrom(m map[ID]string) func(ID) (string, bool) {
	return func(id ID) (string, bool) {
		l, ok := m[id]
		return l, ok
	}
}

func TestVoteConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		cfg  VoteConfig
		ok   bool
	}{
		{"default", DefaultVoteConfig(), true},
		{"zero K", VoteConfig{K: 0, MaxDistance: 1, MinVotes: 1}, false},
		{"zero max distance", VoteConfig{K: 3, MaxDistance: 0, MinVotes: 1}, false},
		{"zero min votes", VoteConfig{K: 3, MaxDistance: 1, MinVotes: 0}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if (err == nil) != tt.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestVoteRejectsInvalidConfig(t *testing.T) {
	_, err := Vote(nil, labelsFrom(nil), VoteConfig{})
	if err == nil {
		t.Fatal("invalid config should error")
	}
}

func TestVoteUnanimous(t *testing.T) {
	ns := []Neighbor{
		{ID: 1, Distance: 0.01},
		{ID: 2, Distance: 0.02},
		{ID: 3, Distance: 0.03},
	}
	labels := map[ID]string{1: "cat", 2: "cat", 3: "cat"}
	v, err := Vote(ns, labelsFrom(labels), DefaultVoteConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !v.Accepted || v.Label != "cat" {
		t.Fatalf("verdict = %+v", v)
	}
	if v.Confidence < 0.99 {
		t.Fatalf("unanimous confidence = %v", v.Confidence)
	}
	if v.Votes != 3 {
		t.Fatalf("votes = %d", v.Votes)
	}
	if v.BestDistance != 0.01 {
		t.Fatalf("best distance = %v", v.BestDistance)
	}
}

func TestVoteRejectsContested(t *testing.T) {
	// Two labels at comparable distance: dominance check must reject.
	ns := []Neighbor{
		{ID: 1, Distance: 0.05},
		{ID: 2, Distance: 0.06},
	}
	labels := map[ID]string{1: "cat", 2: "dog"}
	v, err := Vote(ns, labelsFrom(labels), DefaultVoteConfig())
	if err != nil {
		t.Fatal(err)
	}
	if v.Accepted {
		t.Fatalf("contested vote accepted: %+v", v)
	}
	if v.Votes != 2 {
		t.Fatalf("votes = %d", v.Votes)
	}
}

func TestVoteAcceptsDominant(t *testing.T) {
	// "cat" much closer than the lone "dog": accepted despite mix.
	ns := []Neighbor{
		{ID: 1, Distance: 0.01},
		{ID: 2, Distance: 0.015},
		{ID: 3, Distance: 0.2},
	}
	labels := map[ID]string{1: "cat", 2: "cat", 3: "dog"}
	v, err := Vote(ns, labelsFrom(labels), DefaultVoteConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !v.Accepted || v.Label != "cat" {
		t.Fatalf("verdict = %+v", v)
	}
	if v.Confidence <= 0.5 || v.Confidence >= 1 {
		t.Fatalf("confidence = %v", v.Confidence)
	}
}

func TestVoteRespectsMaxDistance(t *testing.T) {
	ns := []Neighbor{{ID: 1, Distance: 0.9}}
	labels := map[ID]string{1: "cat"}
	cfg := DefaultVoteConfig() // MaxDistance 0.25
	v, err := Vote(ns, labelsFrom(labels), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v.Accepted || v.Votes != 0 {
		t.Fatalf("out-of-range neighbor voted: %+v", v)
	}
}

func TestVoteRespectsK(t *testing.T) {
	// 5 neighbors but K=2: only the two closest vote, so the three
	// distant "dog" entries must not flip the result.
	ns := []Neighbor{
		{ID: 1, Distance: 0.01},
		{ID: 2, Distance: 0.02},
		{ID: 3, Distance: 0.03},
		{ID: 4, Distance: 0.04},
		{ID: 5, Distance: 0.05},
	}
	labels := map[ID]string{1: "cat", 2: "cat", 3: "dog", 4: "dog", 5: "dog"}
	cfg := VoteConfig{K: 2, MaxDistance: 0.25, DominanceRatio: 2, MinVotes: 1}
	v, err := Vote(ns, labelsFrom(labels), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Accepted || v.Label != "cat" || v.Votes != 2 {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestVoteMinVotes(t *testing.T) {
	ns := []Neighbor{{ID: 1, Distance: 0.01}}
	labels := map[ID]string{1: "cat"}
	cfg := VoteConfig{K: 4, MaxDistance: 0.25, DominanceRatio: 2, MinVotes: 2}
	v, err := Vote(ns, labelsFrom(labels), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v.Accepted {
		t.Fatalf("single vote accepted with MinVotes=2: %+v", v)
	}
}

func TestVoteSkipsUnresolvableLabels(t *testing.T) {
	ns := []Neighbor{
		{ID: 1, Distance: 0.01}, // evicted concurrently
		{ID: 2, Distance: 0.02},
	}
	labels := map[ID]string{2: "cat"}
	v, err := Vote(ns, labelsFrom(labels), DefaultVoteConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !v.Accepted || v.Label != "cat" || v.Votes != 1 {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestVoteEmptyNeighbors(t *testing.T) {
	v, err := Vote(nil, labelsFrom(nil), DefaultVoteConfig())
	if err != nil {
		t.Fatal(err)
	}
	if v.Accepted {
		t.Fatal("empty neighbor set accepted")
	}
}

func TestVoteDominanceDisabled(t *testing.T) {
	ns := []Neighbor{
		{ID: 1, Distance: 0.05},
		{ID: 2, Distance: 0.06},
	}
	labels := map[ID]string{1: "cat", 2: "dog"}
	cfg := VoteConfig{K: 4, MaxDistance: 0.25, DominanceRatio: 0, MinVotes: 1}
	v, err := Vote(ns, labelsFrom(labels), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Accepted || v.Label != "cat" {
		t.Fatalf("with dominance disabled closest label should win: %+v", v)
	}
}

func TestVoteDeterministicLabelTieBreak(t *testing.T) {
	// Identical weights for two labels; dominance disabled. The
	// lexicographically smaller label must win deterministically.
	ns := []Neighbor{
		{ID: 1, Distance: 0.05},
		{ID: 2, Distance: 0.05},
	}
	labels := map[ID]string{1: "zebra", 2: "ant"}
	cfg := VoteConfig{K: 4, MaxDistance: 0.25, DominanceRatio: 0, MinVotes: 1}
	for i := 0; i < 10; i++ {
		v, err := Vote(ns, labelsFrom(labels), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if v.Label != "ant" {
			t.Fatalf("tie break unstable: %+v", v)
		}
	}
}

// refVote is the map-and-sort implementation Vote replaced, kept as the
// specification: tally per label in a map, rank the labels with
// sort.Slice under (weight descending, label ascending).
func refVote(neighbors []Neighbor, labelOf func(ID) (string, bool), cfg VoteConfig) Verdict {
	const eps = 1e-6
	type tally struct {
		weight float64
		best   float64
	}
	tallies := make(map[string]*tally)
	var totalWeight float64
	considered := 0
	for _, n := range neighbors {
		if considered >= cfg.K || n.Distance > cfg.MaxDistance {
			break
		}
		label, ok := labelOf(n.ID)
		if !ok {
			continue
		}
		considered++
		w := 1 / (n.Distance + eps)
		tl := tallies[label]
		if tl == nil {
			tl = &tally{best: n.Distance}
			tallies[label] = tl
		}
		tl.weight += w
		if n.Distance < tl.best {
			tl.best = n.Distance
		}
		totalWeight += w
	}
	if considered < cfg.MinVotes || len(tallies) == 0 {
		return Verdict{}
	}
	labels := make([]string, 0, len(tallies))
	for l := range tallies {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool {
		wi, wj := tallies[labels[i]].weight, tallies[labels[j]].weight
		if wi != wj {
			return wi > wj
		}
		return labels[i] < labels[j]
	})
	top := tallies[labels[0]]
	if len(labels) > 1 && cfg.DominanceRatio > 1 {
		if top.weight < cfg.DominanceRatio*tallies[labels[1]].weight {
			return Verdict{Votes: considered}
		}
	}
	return Verdict{
		Accepted:     true,
		Label:        labels[0],
		Confidence:   top.weight / totalWeight,
		BestDistance: top.best,
		Votes:        considered,
	}
}

// TestVoteMatchesReference: verdicts are identical, to the last bit of
// Confidence, to the map-and-sort implementation — over few and many
// labels (past the on-stack tally array), tied weights, unresolvable
// IDs and every dominance setting.
func TestVoteMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	names := []string{"ant", "bee", "cat", "dog", "eel", "fox", "gnu", "hen", "ibis", "jay", "kiwi", "lynx"}
	for trial := 0; trial < 5000; trial++ {
		nLabels := 1 + rng.Intn(len(names))
		n := rng.Intn(16)
		ns := make([]Neighbor, n)
		labels := make(map[ID]string)
		d := 0.0
		for i := range ns {
			if rng.Intn(3) > 0 { // repeated distances: tied weights
				d += float64(rng.Intn(4)) * 0.02
			}
			ns[i] = Neighbor{ID: ID(i + 1), Distance: d}
			if rng.Intn(8) > 0 {
				labels[ns[i].ID] = names[rng.Intn(nLabels)]
			}
		}
		cfg := VoteConfig{
			K:              1 + rng.Intn(14),
			MaxDistance:    0.05 + rng.Float64()*0.4,
			DominanceRatio: []float64{0, 1, 1.5, 2, 4}[rng.Intn(5)],
			MinVotes:       1 + rng.Intn(3),
		}
		got, err := Vote(ns, labelsFrom(labels), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := refVote(ns, labelsFrom(labels), cfg)
		if got.Accepted != want.Accepted || got.Label != want.Label || got.Votes != want.Votes ||
			math.Float64bits(got.Confidence) != math.Float64bits(want.Confidence) ||
			math.Float64bits(got.BestDistance) != math.Float64bits(want.BestDistance) {
			t.Fatalf("trial %d cfg %+v\n ns %v\n labels %v\n got  %+v\n want %+v", trial, cfg, ns, labels, got, want)
		}
	}
}

// voteBenchInput is a served lookup's shape: four in-range neighbors,
// two labels, resolved through a method value as the engine does.
type voteBenchStore struct{ labels [5]string }

func (s *voteBenchStore) Label(id ID) (string, bool) { return s.labels[id], true }

func voteBenchInput() ([]Neighbor, *voteBenchStore) {
	ns := []Neighbor{{ID: 1, Distance: 0.04}, {ID: 2, Distance: 0.07}, {ID: 3, Distance: 0.11}, {ID: 4, Distance: 0.2}}
	return ns, &voteBenchStore{labels: [5]string{"", "label-17", "label-17", "label-3", "label-17"}}
}

func TestVoteDoesNotAllocate(t *testing.T) {
	ns, store := voteBenchInput()
	cfg := DefaultVoteConfig()
	if avg := testing.AllocsPerRun(200, func() {
		if v, err := Vote(ns, store.Label, cfg); err != nil || !v.Accepted {
			t.Fatalf("verdict %+v, err %v", v, err)
		}
	}); avg != 0 {
		t.Fatalf("Vote allocates %.1f times per call, want 0", avg)
	}
}

// BenchmarkHotPathVote measures the homogenized-kNN vote of a served
// lookup. Budget: 0 allocs/op.
func BenchmarkHotPathVote(b *testing.B) {
	ns, store := voteBenchInput()
	cfg := DefaultVoteConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v, err := Vote(ns, store.Label, cfg); err != nil || !v.Accepted {
			b.Fatalf("verdict %+v, err %v", v, err)
		}
	}
}
