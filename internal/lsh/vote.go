package lsh

import "fmt"

// VoteConfig parameterizes the homogenized-kNN acceptance decision.
type VoteConfig struct {
	// K is how many neighbors participate in the vote.
	K int
	// MaxDistance is the largest distance at which a neighbor still
	// counts as evidence; the winning neighbor set must contain at
	// least one neighbor within it.
	MaxDistance float64
	// DominanceRatio is the minimum ratio between the top label's
	// weight and the runner-up's weight for the vote to be accepted.
	// Values <= 1 disable the dominance check.
	DominanceRatio float64
	// MinVotes is the minimum number of in-range neighbors required.
	MinVotes int
}

// Validate reports whether the configuration is usable.
func (c VoteConfig) Validate() error {
	if c.K <= 0 {
		return fmt.Errorf("lsh: vote K must be positive, got %d", c.K)
	}
	if c.MaxDistance <= 0 {
		return fmt.Errorf("lsh: vote MaxDistance must be positive, got %v", c.MaxDistance)
	}
	if c.MinVotes < 1 {
		return fmt.Errorf("lsh: vote MinVotes must be >= 1, got %d", c.MinVotes)
	}
	return nil
}

// DefaultVoteConfig returns the acceptance policy used by the standard
// pipeline: 4-NN, dominance 2.0, at least one vote.
func DefaultVoteConfig() VoteConfig {
	return VoteConfig{K: 4, MaxDistance: 0.25, DominanceRatio: 2.0, MinVotes: 1}
}

// Verdict is the outcome of a homogenized-kNN vote.
type Verdict struct {
	// Accepted reports whether the cached label may be reused.
	Accepted bool
	// Label is the winning label (valid only when Accepted).
	Label string
	// Confidence is the winning label's share of total vote weight.
	Confidence float64
	// BestDistance is the distance of the closest supporting neighbor.
	BestDistance float64
	// Votes is the number of in-range neighbors considered.
	Votes int
}

// Vote runs the homogenized-kNN acceptance decision over neighbors,
// which must be in increasing distance order, as every index returns
// them. labelOf resolves a neighbor's cached label; neighbors whose
// labels cannot be resolved (e.g. concurrently evicted) are skipped.
//
// The decision mirrors FoggyCache's homogenization: neighbors vote with
// weight 1/(distance+ε); the top label must dominate the runner-up by
// DominanceRatio, have at least MinVotes supporters in range, and its
// best supporter must be within MaxDistance. This rejects lookups that
// land between clusters, which is where naive 1-NN reuse loses accuracy.
func Vote(neighbors []Neighbor, labelOf func(ID) (string, bool), cfg VoteConfig) (Verdict, error) {
	if err := cfg.Validate(); err != nil {
		return Verdict{}, err
	}
	const eps = 1e-6
	type tally struct {
		label  string
		weight float64
		best   float64
	}
	// At most K labels can be tallied; the usual K fits the stack array
	// and a linear search over it beats hashing the label.
	var stack [8]tally
	tallies := stack[:0]
	var totalWeight float64
	considered := 0
	for _, n := range neighbors {
		if considered >= cfg.K {
			break
		}
		if n.Distance > cfg.MaxDistance {
			// Neighbors are sorted by distance: everything after is
			// also out of range.
			break
		}
		label, ok := labelOf(n.ID)
		if !ok {
			continue
		}
		considered++
		w := 1 / (n.Distance + eps)
		var tl *tally
		for i := range tallies {
			if tallies[i].label == label {
				tl = &tallies[i]
				break
			}
		}
		if tl == nil { // a label's first supporter is its nearest
			tallies = append(tallies, tally{label: label, best: n.Distance})
			tl = &tallies[len(tallies)-1]
		}
		tl.weight += w
		totalWeight += w
	}
	if considered < cfg.MinVotes || len(tallies) == 0 {
		return Verdict{}, nil
	}

	// Winner and runner-up under (weight descending, label ascending).
	ahead := func(a, b *tally) bool {
		if a.weight != b.weight {
			return a.weight > b.weight
		}
		return a.label < b.label
	}
	top := &tallies[0]
	var second *tally
	for i := 1; i < len(tallies); i++ {
		switch tl := &tallies[i]; {
		case ahead(tl, top):
			top, second = tl, top
		case second == nil || ahead(tl, second):
			second = tl
		}
	}
	if second != nil && cfg.DominanceRatio > 1 && top.weight < cfg.DominanceRatio*second.weight {
		return Verdict{Votes: considered}, nil
	}
	return Verdict{
		Accepted:     true,
		Label:        top.label,
		Confidence:   top.weight / totalWeight,
		BestDistance: top.best,
		Votes:        considered,
	}, nil
}
