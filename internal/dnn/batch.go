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
// invocation classifying n frames under profile p. BatchLatency(p, 1)
// equals p.MeanLatency.
func BatchLatency(p Profile, n int) time.Duration {
	if n <= 0 {
		return 0
	}
	return time.Duration(float64(p.MeanLatency) *
		(BatchFixedFraction + (1-BatchFixedFraction)*float64(n)))
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
// invocation. Feature extraction and the prototype decision are
// computed per frame exactly as Infer does; the reported latency is
// each frame's even share of the invocation's BatchLatency (plus one
// jittered draw for the whole invocation), and energy amortizes the
// same way, so a full batch is several times cheaper per frame than n
// separate Infer calls.
func (c *Classifier) InferBatch(ims []*vision.Image) ([]Inference, error) {
	if len(ims) == 0 {
		return nil, nil
	}
	out := make([]Inference, len(ims))
	type decision struct {
		best int
		conf float64
	}
	decisions := make([]decision, len(ims))
	for i, im := range ims {
		if im == nil {
			return nil, fmt.Errorf("dnn: nil image at batch index %d", i)
		}
		best, conf, err := c.decide(im)
		if err != nil {
			return nil, fmt.Errorf("batch index %d: %w", i, err)
		}
		decisions[i] = decision{best: best, conf: conf}
	}

	n := len(ims)
	c.mu.Lock()
	batchLatency := BatchLatency(c.profile, n) +
		time.Duration(c.rng.NormFloat64()*float64(c.profile.LatencyJitter))
	type noise struct {
		misclassify bool
		wrong       int
	}
	noises := make([]noise, n)
	for i := range noises {
		noises[i].misclassify = c.rng.Float64() > c.profile.Top1Accuracy
		if noises[i].misclassify && len(c.labels) > 1 {
			noises[i].wrong = c.rng.Intn(len(c.labels) - 1)
		}
	}
	c.mu.Unlock()

	if floor := BatchLatency(c.profile, n) / 2; batchLatency < floor {
		batchLatency = floor
	}
	perFrame := batchLatency / time.Duration(n)
	perEnergy := c.profile.EnergyPerInference *
		(BatchFixedFraction + (1-BatchFixedFraction)*float64(n)) / float64(n)
	for i := range out {
		label := c.labels[decisions[i].best]
		conf := decisions[i].conf
		correct := true
		if noises[i].misclassify && len(c.labels) > 1 {
			wrong := noises[i].wrong
			if wrong >= decisions[i].best {
				wrong++
			}
			label = c.labels[wrong]
			correct = false
			conf *= 0.8
		}
		out[i] = Inference{
			Label:      label,
			Confidence: conf,
			Latency:    perFrame,
			EnergyMJ:   perEnergy,
			Correct:    correct,
		}
	}
	return out, nil
}
