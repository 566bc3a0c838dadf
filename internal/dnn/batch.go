package dnn

import (
	"fmt"
	"time"

	"approxcache/internal/vision"
)

// Batched inference: mobile accelerators (GPU/NPU delegates, NNAPI)
// pay a large fixed cost per model invocation — weight upload, kernel
// launch, memory fences — and a comparatively small marginal cost per
// extra image in the batch. Under concurrent load, coalescing cache
// misses into one invocation amortizes the fixed cost exactly where
// misses pile up.

// BatchFixedFraction is the fraction of single-frame inference latency
// that is per-invocation overhead rather than per-frame compute. A
// batch of n frames therefore occupies the accelerator for
// Mean×(f + (1−f)·n) instead of Mean×n.
const BatchFixedFraction = 0.85

// BatchLatency returns the simulated accelerator occupancy for one
// invocation classifying n ≥ 1 frames under profile p.
// BatchLatency(p, 1) equals p.MeanLatency.
func BatchLatency(p Profile, n int) time.Duration {
	return time.Duration(float64(p.MeanLatency) * batchCost(n))
}

// batchCost is the cost of an invocation of n frames in single-frame
// invocations: 1 for n = 1.
func batchCost(n int) float64 {
	return BatchFixedFraction + (1-BatchFixedFraction)*float64(n)
}

// BatchClassifier is a classifier that can serve several frames in one
// model invocation. *Classifier implements it; the micro-batching
// scheduler (Batcher) requires it.
type BatchClassifier interface {
	// Infer classifies one frame at full single-frame cost.
	Infer(im *vision.Image) (Inference, error)
	// InferBatch classifies ims in one invocation, returning one
	// result per frame in order. Per-frame latency and energy are the
	// invocation's amortized share.
	InferBatch(ims []*vision.Image) ([]Inference, error)
	// Profile returns the model's cost/quality profile.
	Profile() Profile
}

var _ BatchClassifier = (*Classifier)(nil)

// InferBatch classifies every frame in ims in one simulated model
// invocation, each frame decided exactly as Infer decides it; the
// reported latency is each frame's even share of the invocation's
// BatchLatency (plus one jittered draw for the whole invocation), and
// energy amortizes the same way, so a full batch is several times
// cheaper per frame than n separate Infer calls.
func (c *Classifier) InferBatch(ims []*vision.Image) ([]Inference, error) {
	if len(ims) == 0 {
		return nil, nil
	}
	for i, im := range ims {
		if im == nil {
			return nil, fmt.Errorf("dnn: nil image at batch index %d", i)
		}
	}
	out := make([]Inference, len(ims))
	if i, err := c.invoke(ims, out, make([]int, len(ims))); err != nil {
		return nil, fmt.Errorf("batch index %d: %w", i, err)
	}
	return out, nil
}
