package p2p

import (
	"fmt"

	"approxcache/internal/feature"
)

// Digest is a compact summary of a peer's cache coverage: leader-
// clustered centroids of its cached feature vectors. A requester whose
// query is far from every centroid knows the peer cannot answer and
// skips the round trip — the scalability valve for large neighborhoods.
type Digest struct {
	// Centroids are cluster representatives of the peer's entries.
	Centroids []feature.Vector
}

// MaxDigestCentroids bounds a digest's size on the wire.
const MaxDigestCentroids = 16

// BuildDigest summarizes vectors by greedy leader clustering: scan the
// vectors, open a new cluster whenever none is within radius, and
// return the running means. It is order-dependent but cheap (one pass)
// and good enough for a coverage hint.
func BuildDigest(vecs []feature.Vector, radius float64, maxCentroids int) (Digest, error) {
	if radius <= 0 {
		return Digest{}, fmt.Errorf("p2p: digest radius must be positive, got %v", radius)
	}
	if maxCentroids <= 0 || maxCentroids > MaxDigestCentroids {
		return Digest{}, fmt.Errorf("p2p: digest centroids must be in [1,%d], got %d",
			MaxDigestCentroids, maxCentroids)
	}
	var clusters []*digestCluster
	for _, v := range vecs {
		if len(v) == 0 {
			continue
		}
		var best *digestCluster
		bestD := radius
		for _, c := range clusters {
			mean := c.mean()
			if d := feature.MustEuclidean(mean, v); d <= bestD {
				best, bestD = c, d
			}
		}
		if best != nil {
			for i := range v {
				best.sum[i] += v[i]
			}
			best.n++
			continue
		}
		if len(clusters) < maxCentroids {
			clusters = append(clusters, &digestCluster{sum: v.Clone(), n: 1})
		}
		// Past capacity, outliers are simply not represented: the
		// digest is a hint, and false "can't help" only costs a
		// missed peer hit, never correctness.
	}
	d := Digest{Centroids: make([]feature.Vector, 0, len(clusters))}
	for _, c := range clusters {
		d.Centroids = append(d.Centroids, c.mean())
	}
	return d, nil
}

// digestCluster is one running cluster during digest construction.
type digestCluster struct {
	sum feature.Vector
	n   int
}

func (c *digestCluster) mean() feature.Vector {
	out := c.sum.Clone()
	for i := range out {
		out[i] /= float64(c.n)
	}
	return out
}

// MayCover reports whether the digest suggests the peer could answer a
// query at vec within maxDistance: some centroid lies within
// maxDistance+slack (slack accounts for cluster radius). An empty
// digest covers nothing.
func (d Digest) MayCover(vec feature.Vector, maxDistance, slack float64) bool {
	for _, c := range d.Centroids {
		if feature.MustEuclidean(c, vec) <= maxDistance+slack {
			return true
		}
	}
	return false
}
