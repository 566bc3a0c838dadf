// Package dnn simulates the on-device deep-neural-network image
// classifier that the approximate cache fronts.
//
// The paper runs real DNNs (e.g. MobileNet-class models) on real
// smartphones. For the cache's behaviour only two things about the DNN
// matter: (a) it returns the correct label with some high probability,
// and (b) it has a large, device-dependent latency and energy cost —
// the cost the cache exists to avoid. This package reproduces both: a
// nearest-prototype classifier over the synthetic class set with
// configurable top-1 accuracy, plus per-model latency/energy profiles
// calibrated to published mobile-inference measurements. All randomness
// (label noise, latency jitter) is seeded, so runs replay exactly.
package dnn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"approxcache/internal/feature"
	"approxcache/internal/vision"
)

// Profile describes a model's cost and quality on a reference device.
type Profile struct {
	// Name identifies the model in reports.
	Name string
	// MeanLatency is the average single-frame inference latency.
	MeanLatency time.Duration
	// LatencyJitter is the standard deviation of inference latency.
	LatencyJitter time.Duration
	// EnergyPerInference is the energy cost of one inference, in
	// millijoules.
	EnergyPerInference float64
	// Top1Accuracy is the probability that an inference returns the
	// true label.
	Top1Accuracy float64
}

// Validate reports whether the profile is usable.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("dnn: profile needs a name")
	}
	if p.MeanLatency <= 0 {
		return fmt.Errorf("dnn: profile %q: MeanLatency must be positive", p.Name)
	}
	if p.LatencyJitter < 0 {
		return fmt.Errorf("dnn: profile %q: LatencyJitter must be non-negative", p.Name)
	}
	if p.EnergyPerInference < 0 {
		return fmt.Errorf("dnn: profile %q: EnergyPerInference must be non-negative", p.Name)
	}
	if p.Top1Accuracy <= 0 || p.Top1Accuracy > 1 {
		return fmt.Errorf("dnn: profile %q: Top1Accuracy must be in (0,1], got %v",
			p.Name, p.Top1Accuracy)
	}
	return nil
}

// Model zoo: latency/energy calibrated to the mobile-inference
// literature (mid-range 2020-era smartphone CPU).
var (
	// MobileNetV2 is the default "standard mobile neural network" of
	// the paper's headline claim.
	MobileNetV2 = Profile{
		Name:               "mobilenet-v2",
		MeanLatency:        120 * time.Millisecond,
		LatencyJitter:      15 * time.Millisecond,
		EnergyPerInference: 350,
		Top1Accuracy:       0.92,
	}
	// SqueezeNet trades accuracy for speed.
	SqueezeNet = Profile{
		Name:               "squeezenet",
		MeanLatency:        80 * time.Millisecond,
		LatencyJitter:      10 * time.Millisecond,
		EnergyPerInference: 240,
		Top1Accuracy:       0.86,
	}
	// InceptionV3 is a heavier, more accurate model.
	InceptionV3 = Profile{
		Name:               "inception-v3",
		MeanLatency:        400 * time.Millisecond,
		LatencyJitter:      45 * time.Millisecond,
		EnergyPerInference: 1150,
		Top1Accuracy:       0.95,
	}
	// ResNet50 is the largest model in the zoo.
	ResNet50 = Profile{
		Name:               "resnet-50",
		MeanLatency:        520 * time.Millisecond,
		LatencyJitter:      55 * time.Millisecond,
		EnergyPerInference: 1500,
		Top1Accuracy:       0.96,
	}
)

// Profiles returns the built-in model zoo.
func Profiles() []Profile {
	return []Profile{MobileNetV2, SqueezeNet, InceptionV3, ResNet50}
}

// ProfileByName resolves a zoo profile by name.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("dnn: unknown profile %q", name)
}

// Inference is the result of one simulated DNN run.
type Inference struct {
	// Label is the predicted class label.
	Label string
	// Confidence is the model's confidence in Label, derived from the
	// prototype-distance margin.
	Confidence float64
	// Latency is the simulated inference time for this frame.
	Latency time.Duration
	// EnergyMJ is the energy spent, in millijoules.
	EnergyMJ float64
	// Correct reports whether Label matches the classifier's own
	// feature-space decision before error injection. Consumers that
	// need ground truth should compare Label against the workload's
	// true class instead.
	Correct bool
}

// Classifier is the simulated DNN. It is safe for concurrent use.
type Classifier struct {
	profile Profile
	classes *vision.ClassSet
	ex      feature.Extractor
	// protos holds class i's prototype descriptor in row i; labels is
	// parallel to it.
	protos *protoTable
	labels []string
	// scratch pools the per-call buffers of decide.
	scratch sync.Pool

	mu  sync.Mutex
	rng *rand.Rand
}

// decideScratch is one decide call's working memory: the descriptor,
// its projection and the per-class lower bounds.
type decideScratch struct {
	v  feature.Vector
	pq coords
	lb []float64
}

// NewClassifier builds a classifier for classes under profile, seeding
// all stochastic behaviour from seed. The classifier's internal feature
// space is higher-resolution than the cache's (16×16 grid + 32-bin
// histogram), reflecting that the DNN sees more than the cheap cache
// descriptor.
func NewClassifier(profile Profile, classes *vision.ClassSet, seed int64) (*Classifier, error) {
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	if classes == nil {
		return nil, fmt.Errorf("dnn: nil class set")
	}
	ex := feature.GridHistogram{Cols: 16, Rows: 16, Bins: 32}
	c := &Classifier{
		profile: profile,
		classes: classes,
		ex:      ex,
		labels:  make([]string, classes.NumClasses()),
		rng:     rand.New(rand.NewSource(seed)),
	}
	protos := make([][]float64, classes.NumClasses())
	for i := range protos {
		proto, err := classes.Prototype(i)
		if err != nil {
			return nil, err
		}
		if protos[i], err = ex.Extract(proto); err != nil {
			return nil, fmt.Errorf("extract prototype %d: %w", i, err)
		}
		c.labels[i] = LabelOf(i)
	}
	var err error
	if c.protos, err = newProtoTable(protos, ex.Dim()); err != nil {
		return nil, err
	}
	c.scratch.New = func() any {
		return &decideScratch{
			v:  make(feature.Vector, ex.Dim()),
			lb: make([]float64, c.protos.n),
		}
	}
	return c, nil
}

// LabelOf returns the canonical label string for class index c.
func LabelOf(c int) string { return fmt.Sprintf("class-%d", c) }

// Profile returns the classifier's cost/quality profile.
func (c *Classifier) Profile() Profile { return c.profile }

// Infer classifies im, simulating latency, energy, and top-1 error.
// It performs real feature computation (so wall-clock benchmarks remain
// meaningful) but reports the profile's simulated cost, which callers
// charge to a virtual clock. It is an invocation of one frame, whose
// BatchLatency is the profile's MeanLatency, so it equals
// InferBatch([]*vision.Image{im})[0] on a classifier in the same state.
func (c *Classifier) Infer(im *vision.Image) (Inference, error) {
	if im == nil {
		return Inference{}, fmt.Errorf("dnn: nil image")
	}
	var out [1]Inference
	var best [1]int
	if _, err := c.invoke([]*vision.Image{im}, out[:], best[:]); err != nil {
		return Inference{}, err
	}
	return out[0], nil
}

// invoke classifies ims (none nil) in one simulated model invocation,
// writing frame i's result to out[i]; best is scratch of the same
// length. Every frame's feature-space decision comes first: a frame
// that cannot be decided stops the invocation before it draws any
// noise, and invoke returns its index. Then, under one lock, it draws
// the invocation's latency jitter and each frame's misclassification in
// frame order. The invocation's latency, floored at half its
// BatchLatency, and its energy are shared evenly by the frames; a
// misclassified frame gets a uniformly drawn other label at 0.8 of the
// confidence.
func (c *Classifier) invoke(ims []*vision.Image, out []Inference, best []int) (int, error) {
	for i, im := range ims {
		var err error
		if best[i], out[i].Confidence, err = c.decide(im); err != nil {
			return i, err
		}
	}
	n := len(ims)
	mean := BatchLatency(c.profile, n)
	energy := c.profile.EnergyPerInference * batchCost(n) / float64(n)
	c.mu.Lock()
	defer c.mu.Unlock()
	latency := max(mean+time.Duration(c.rng.NormFloat64()*float64(c.profile.LatencyJitter)), mean/2)
	for i := range out {
		label, correct := best[i], true
		if c.rng.Float64() > c.profile.Top1Accuracy && len(c.labels) > 1 {
			if label = c.rng.Intn(len(c.labels) - 1); label >= best[i] {
				label++
			}
			correct = false
			out[i].Confidence *= 0.8
		}
		out[i].Label = c.labels[label]
		out[i].Latency = latency / time.Duration(n)
		out[i].EnergyMJ = energy
		out[i].Correct = correct
	}
	return 0, nil
}

// decide is the model's feature-space decision for im: the class whose
// prototype is nearest its descriptor (the lower class on a tie) and the
// confidence the margin to the runner-up gives. A class set has at
// least one class, so there is always a nearest. A frame whose
// descriptor is not finite has no nearest class and is refused.
func (c *Classifier) decide(im *vision.Image) (best int, conf float64, err error) {
	s := c.scratch.Get().(*decideScratch)
	defer c.scratch.Put(s)
	v, err := c.ex.ExtractInto(im, s.v)
	if err != nil {
		return 0, 0, fmt.Errorf("extract: %w", err)
	}
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0, 0, fmt.Errorf("dnn: non-finite descriptor")
		}
	}
	best, d1, d2 := c.protos.nearest2(v, &s.pq, s.lb)
	return best, confidenceFromMargin(math.Sqrt(d1), math.Sqrt(d2)), nil
}

// confidenceFromMargin maps the distance margin between the best and
// second-best prototypes to a confidence in (0.5, 1].
func confidenceFromMargin(best, second float64) float64 {
	if math.IsInf(second, 1) {
		return 1
	}
	if second <= 0 {
		return 0.5
	}
	margin := (second - best) / second
	return 0.5 + 0.5*math.Min(1, math.Max(0, margin)*2)
}
