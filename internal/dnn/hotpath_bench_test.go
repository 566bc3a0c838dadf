package dnn

import (
	"math/rand"
	"strconv"
	"testing"

	"approxcache/internal/vision"
)

// BenchmarkHotPathClassifierDecide is the simulated model's
// feature-space decision on rendered 48×48 frames — descriptor
// extraction plus the nearest-prototype search — at a small vocabulary
// (a plain scan) and at the largest a workload uses (the projected
// filter-and-refine search).
func BenchmarkHotPathClassifierDecide(b *testing.B) {
	for _, n := range []int{6, 512} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			cs, err := vision.NewClassSet(n, 48, 48, 21)
			if err != nil {
				b.Fatal(err)
			}
			c, err := NewClassifier(MobileNetV2, cs, 1)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
			frames := make([]*vision.Image, 64)
			for i := range frames {
				if frames[i], err = cs.Render(rng.Intn(n), vision.DefaultPerturbation(), rng); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := c.decide(frames[i%len(frames)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
