package vision

import (
	"bytes"
	"image"
	"image/color"
	"image/png"
	"strings"
	"testing"
)

func TestEncodePNGErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodePNG(&buf, nil); err == nil {
		t.Fatal("nil image accepted")
	}
	if err := EncodePNG(&buf, &Image{}); err == nil {
		t.Fatal("empty image accepted")
	}
}

func TestPNGRoundTrip(t *testing.T) {
	cs, err := NewClassSet(2, 32, 32, 9)
	if err != nil {
		t.Fatal(err)
	}
	src, err := cs.Prototype(0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodePNG(&buf, src); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty png")
	}
	back, err := DecodePNG(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.W != 32 || back.H != 32 {
		t.Fatalf("size = %dx%d", back.W, back.H)
	}
	if !bytes.Equal(back.Pix, src.Pix) {
		t.Fatal("round trip changed pixels")
	}
}

// Every level survives a round trip bit for bit — white too, which the
// float-pixel encoder wrote as 254 — and a non-gray PNG is read as luma.
func TestPNGRoundTripAllLevels(t *testing.T) {
	src := NewImage(16, 16)
	for i := range src.Pix {
		src.Pix[i] = uint8(i)
	}
	var buf bytes.Buffer
	if err := EncodePNG(&buf, src); err != nil {
		t.Fatal(err)
	}
	back, err := DecodePNG(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.W != src.W || back.H != src.H || !bytes.Equal(back.Pix, src.Pix) {
		t.Fatalf("round trip: %dx%d %v, want %dx%d %v", back.W, back.H, back.Pix, src.W, src.H, src.Pix)
	}

	rgba := image.NewRGBA(image.Rect(0, 0, 257, 1))
	for k := 0; k <= MaxLevel; k++ {
		rgba.Set(k, 0, color.RGBA{uint8(k), uint8(k), uint8(k), 0xff})
	}
	rgba.Set(256, 0, color.RGBA{0xff, 0, 0, 0xff})
	buf.Reset()
	if err := png.Encode(&buf, rgba); err != nil {
		t.Fatal(err)
	}
	if back, err = DecodePNG(&buf); err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= MaxLevel; k++ {
		if back.Pix[k] != uint8(k) {
			t.Fatalf("RGB gray %d decoded as %d", k, back.Pix[k])
		}
	}
	if back.Pix[256] != 76 {
		t.Fatalf("pure red decoded as %d, want round(0.299·255) = 76", back.Pix[256])
	}
}

func TestDecodePNGGarbage(t *testing.T) {
	if _, err := DecodePNG(strings.NewReader("not a png")); err == nil {
		t.Fatal("garbage decoded")
	}
}
