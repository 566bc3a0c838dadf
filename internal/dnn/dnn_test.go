package dnn

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"approxcache/internal/feature"
	"approxcache/internal/vision"
)

func testClasses(t *testing.T) *vision.ClassSet {
	t.Helper()
	cs, err := vision.NewClassSet(6, 64, 64, 21)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func TestProfileValidate(t *testing.T) {
	tests := []struct {
		name string
		p    Profile
		ok   bool
	}{
		{"mobilenet", MobileNetV2, true},
		{"no name", Profile{MeanLatency: time.Second, Top1Accuracy: 0.9}, false},
		{"zero latency", Profile{Name: "x", Top1Accuracy: 0.9}, false},
		{"negative jitter", Profile{Name: "x", MeanLatency: 1, LatencyJitter: -1, Top1Accuracy: 0.9}, false},
		{"negative energy", Profile{Name: "x", MeanLatency: 1, EnergyPerInference: -1, Top1Accuracy: 0.9}, false},
		{"zero accuracy", Profile{Name: "x", MeanLatency: 1}, false},
		{"accuracy > 1", Profile{Name: "x", MeanLatency: 1, Top1Accuracy: 1.5}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.p.Validate(); (err == nil) != tt.ok {
				t.Fatalf("Validate = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestZooProfilesAllValid(t *testing.T) {
	for _, p := range Profiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %q invalid: %v", p.Name, err)
		}
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("resnet-50")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "resnet-50" {
		t.Fatalf("got %q", p.Name)
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Fatal("unknown profile should error")
	}
}

func TestNewClassifierValidation(t *testing.T) {
	cs := testClasses(t)
	if _, err := NewClassifier(Profile{}, cs, 1); err == nil {
		t.Fatal("bad profile accepted")
	}
	if _, err := NewClassifier(MobileNetV2, nil, 1); err == nil {
		t.Fatal("nil class set accepted")
	}
}

func TestInferNilImage(t *testing.T) {
	cs := testClasses(t)
	c, err := NewClassifier(MobileNetV2, cs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Infer(nil); err == nil {
		t.Fatal("nil image accepted")
	}
}

// poisoned is the classifier's own extractor, except that a frame whose
// first pixel is marked gets x as its first descriptor dimension.
type poisoned struct {
	feature.Extractor
	x float64
}

const poisonMark = 0xab

func (p poisoned) ExtractInto(im *vision.Image, dst feature.Vector) (feature.Vector, error) {
	v, err := p.Extractor.ExtractInto(im, dst)
	if err == nil && im.Pix[0] == poisonMark {
		v[0] = p.x
	}
	return v, err
}

// TestInferRefusesNonFiniteDescriptor: a frame whose descriptor is not
// finite has no nearest class, so Infer and InferBatch refuse it as they
// refuse a nil frame, and a batch names the frame. A byte frame's own
// descriptor is always finite, so the test poisons the extractor.
func TestInferRefusesNonFiniteDescriptor(t *testing.T) {
	cs := testClasses(t)
	c, err := NewClassifier(MobileNetV2, cs, 1)
	if err != nil {
		t.Fatal(err)
	}
	good, err := cs.Prototype(0)
	if err != nil {
		t.Fatal(err)
	}
	if good.Pix[0] == poisonMark {
		t.Fatal("the good frame carries the poison mark")
	}
	bad := good.Clone()
	bad.Pix[0] = poisonMark
	own := c.ex
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		c.ex = poisoned{own, x}
		if _, err := c.Infer(bad); err == nil || !strings.Contains(err.Error(), "non-finite") {
			t.Fatalf("descriptor %v: Infer err = %v", x, err)
		}
		_, err := c.InferBatch([]*vision.Image{good, bad})
		if err == nil || !strings.Contains(err.Error(), "batch index 1") || !strings.Contains(err.Error(), "non-finite") {
			t.Fatalf("descriptor %v: InferBatch err = %v", x, err)
		}
	}
	if _, err := c.Infer(good); err != nil {
		t.Fatalf("a finite frame after refused ones: %v", err)
	}
}

func TestInferPerfectModelAlwaysCorrect(t *testing.T) {
	cs := testClasses(t)
	perfect := MobileNetV2
	perfect.Top1Accuracy = 1.0
	c, err := NewClassifier(perfect, cs, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		cls := trial % cs.NumClasses()
		im, err := cs.Render(cls, vision.DefaultPerturbation(), rng)
		if err != nil {
			t.Fatal(err)
		}
		inf, err := c.Infer(im)
		if err != nil {
			t.Fatal(err)
		}
		if inf.Label != LabelOf(cls) {
			t.Fatalf("trial %d: label %q, want %q", trial, inf.Label, LabelOf(cls))
		}
		if !inf.Correct {
			t.Fatal("perfect model reported incorrect")
		}
	}
}

// TestDecisionMatchesPrototypeScan holds the classifier's decision to the
// plain top-2 scan (one feature.MustEuclidean per prototype, strict
// less-than, so the lower class wins a tie): same class, same confidence
// to the bit, for Infer and for every frame of InferBatch. 40 classes
// scan plainly; 512 take the projected filter-and-refine search.
func TestDecisionMatchesPrototypeScan(t *testing.T) {
	for _, n := range []int{40, 512} {
		t.Run(strconv.Itoa(n), func(t *testing.T) { testDecisionMatchesScan(t, n) })
	}
}

func testDecisionMatchesScan(t *testing.T, numClasses int) {
	cs, err := vision.NewClassSet(numClasses, 64, 64, 9)
	if err != nil {
		t.Fatal(err)
	}
	perfect := MobileNetV2
	perfect.Top1Accuracy = 1.0 // no label noise: Infer reports the decision itself
	c, err := NewClassifier(perfect, cs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if projected := c.protos.coords != nil; projected != (numClasses >= 231) {
		t.Fatalf("%d classes: projected = %v", numClasses, projected)
	}
	protos := make([]feature.Vector, cs.NumClasses())
	for i := range protos {
		im, err := cs.Prototype(i)
		if err != nil {
			t.Fatal(err)
		}
		if protos[i], err = c.ex.Extract(im); err != nil {
			t.Fatal(err)
		}
	}
	scan := func(im *vision.Image) (string, float64) {
		v, err := c.ex.Extract(im)
		if err != nil {
			t.Fatal(err)
		}
		best := -1
		bestD, secondD := math.Inf(1), math.Inf(1)
		for i, p := range protos {
			d := feature.MustEuclidean(v, p)
			switch {
			case d < bestD:
				secondD = bestD
				best, bestD = i, d
			case d < secondD:
				secondD = d
			}
		}
		return LabelOf(best), confidenceFromMargin(bestD, secondD)
	}
	rng := rand.New(rand.NewSource(5))
	heavy := vision.DefaultPerturbation()
	heavy.Noise *= 8 // push frames towards the class boundaries
	var ims []*vision.Image
	for trial := 0; trial < 200; trial++ {
		p := vision.DefaultPerturbation()
		if trial%2 == 1 {
			p = heavy
		}
		im, err := cs.Render(trial%cs.NumClasses(), p, rng)
		if err != nil {
			t.Fatal(err)
		}
		ims = append(ims, im)
	}
	// A prototype itself: distance 0 to its class, confidence 1.
	exact, err := cs.Prototype(7)
	if err != nil {
		t.Fatal(err)
	}
	ims = append(ims, exact)
	batch, err := c.InferBatch(ims)
	if err != nil {
		t.Fatal(err)
	}
	for i, im := range ims {
		label, conf := scan(im)
		inf, err := c.Infer(im)
		if err != nil {
			t.Fatal(err)
		}
		for _, got := range []Inference{inf, batch[i]} {
			if got.Label != label || math.Float64bits(got.Confidence) != math.Float64bits(conf) {
				t.Fatalf("frame %d: got (%s, %v), scan (%s, %v)", i, got.Label, got.Confidence, label, conf)
			}
		}
	}
}

func TestInferAccuracyMatchesProfile(t *testing.T) {
	cs := testClasses(t)
	p := MobileNetV2
	p.Top1Accuracy = 0.8
	c, err := NewClassifier(p, cs, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	const n = 600
	correct := 0
	for i := 0; i < n; i++ {
		cls := i % cs.NumClasses()
		im, err := cs.Render(cls, vision.DefaultPerturbation(), rng)
		if err != nil {
			t.Fatal(err)
		}
		inf, err := c.Infer(im)
		if err != nil {
			t.Fatal(err)
		}
		if inf.Label == LabelOf(cls) {
			correct++
		}
	}
	acc := float64(correct) / n
	if acc < 0.72 || acc > 0.88 {
		t.Fatalf("measured accuracy %v, want ~0.8", acc)
	}
}

func TestInferLatencyDistribution(t *testing.T) {
	cs := testClasses(t)
	c, err := NewClassifier(MobileNetV2, cs, 6)
	if err != nil {
		t.Fatal(err)
	}
	proto, _ := cs.Prototype(0)
	var total time.Duration
	const n = 200
	for i := 0; i < n; i++ {
		inf, err := c.Infer(proto)
		if err != nil {
			t.Fatal(err)
		}
		if inf.Latency < MobileNetV2.MeanLatency/2 {
			t.Fatalf("latency %v below floor", inf.Latency)
		}
		if inf.EnergyMJ != MobileNetV2.EnergyPerInference {
			t.Fatalf("energy = %v", inf.EnergyMJ)
		}
		total += inf.Latency
	}
	mean := total / n
	lo := MobileNetV2.MeanLatency - MobileNetV2.MeanLatency/10
	hi := MobileNetV2.MeanLatency + MobileNetV2.MeanLatency/10
	if mean < lo || mean > hi {
		t.Fatalf("mean latency %v, want within 10%% of %v", mean, MobileNetV2.MeanLatency)
	}
}

func TestInferConfidenceRange(t *testing.T) {
	cs := testClasses(t)
	c, err := NewClassifier(MobileNetV2, cs, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 50; i++ {
		im, err := cs.Render(i%cs.NumClasses(), vision.HardPerturbation(), rng)
		if err != nil {
			t.Fatal(err)
		}
		inf, err := c.Infer(im)
		if err != nil {
			t.Fatal(err)
		}
		if inf.Confidence < 0 || inf.Confidence > 1 {
			t.Fatalf("confidence %v out of range", inf.Confidence)
		}
	}
}

func TestInferDeterministicWithSeed(t *testing.T) {
	cs := testClasses(t)
	run := func() []string {
		c, err := NewClassifier(MobileNetV2, cs, 99)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(10))
		var out []string
		for i := 0; i < 30; i++ {
			im, err := cs.Render(i%cs.NumClasses(), vision.DefaultPerturbation(), rng)
			if err != nil {
				t.Fatal(err)
			}
			inf, err := c.Infer(im)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, inf.Label)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestSingleClassNeverMisclassifies(t *testing.T) {
	cs, err := vision.NewClassSet(1, 32, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := MobileNetV2
	p.Top1Accuracy = 0.5
	c, err := NewClassifier(p, cs, 2)
	if err != nil {
		t.Fatal(err)
	}
	proto, _ := cs.Prototype(0)
	for i := 0; i < 20; i++ {
		inf, err := c.Infer(proto)
		if err != nil {
			t.Fatal(err)
		}
		if inf.Label != LabelOf(0) {
			t.Fatal("single-class classifier produced another label")
		}
	}
}
