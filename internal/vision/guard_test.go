package vision

import (
	"math/rand"
	"testing"
)

func TestCheckFrameFaultClasses(t *testing.T) {
	cfg := DefaultFrameGuardConfig()
	mk := func(fill func(*Image)) *Image {
		im := NewImage(16, 16)
		for i := range im.Pix {
			im.Pix[i] = uint8(i % 7 * 36) // plenty of contrast
		}
		if fill != nil {
			fill(im)
		}
		return im
	}
	tests := []struct {
		name  string
		frame *Image
		want  FrameFault
	}{
		{"healthy", mk(nil), FrameOK},
		{"nil", nil, FrameNil},
		{"zero dims", &Image{}, FrameEmpty},
		{"pix mismatch", &Image{W: 4, H: 4, Pix: make([]uint8, 3)}, FrameEmpty},
		{"all black", mk(func(im *Image) {
			for i := range im.Pix {
				im.Pix[i] = 0
			}
		}), FrameLowEntropy},
		{"uniform gray", mk(func(im *Image) {
			for i := range im.Pix {
				im.Pix[i] = 128
			}
		}), FrameLowEntropy},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := CheckFrame(tc.frame, cfg); got != tc.want {
				t.Fatalf("CheckFrame(%s) = %v, want %v", tc.name, got, tc.want)
			}
		})
	}
}

func TestCheckFrameAcceptsRenderedFrames(t *testing.T) {
	cs, err := NewClassSet(4, 48, 48, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	cfg := DefaultFrameGuardConfig()
	for c := 0; c < 4; c++ {
		for i := 0; i < 8; i++ {
			im, err := cs.Render(c, HardPerturbation(), rng)
			if err != nil {
				t.Fatal(err)
			}
			if got := CheckFrame(im, cfg); got != FrameOK {
				t.Fatalf("rendered frame class %d flagged %v", c, got)
			}
		}
	}
}

func TestFrameFaultStructural(t *testing.T) {
	for f, want := range map[FrameFault]bool{
		FrameOK: false, FrameNil: true, FrameEmpty: true, FrameLowEntropy: false,
	} {
		if got := f.Structural(); got != want {
			t.Fatalf("Structural(%v) = %v, want %v", f, got, want)
		}
	}
	if got := FrameFault(42).String(); got != "FrameFault(42)" {
		t.Fatalf("unknown fault string %q", got)
	}
}
