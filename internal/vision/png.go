package vision

import (
	"fmt"
	"image"
	"image/png"
	"io"
)

// EncodePNG writes im as an 8-bit grayscale PNG, for visual inspection
// of synthetic workloads (cmd/tracegen -render). The PNG holds the
// frame's bytes as they are.
func EncodePNG(w io.Writer, im *Image) error {
	if !im.WellFormed() {
		return fmt.Errorf("vision: malformed image")
	}
	gray := &image.Gray{Pix: im.Pix, Stride: im.W, Rect: image.Rect(0, 0, im.W, im.H)}
	if err := png.Encode(w, gray); err != nil {
		return fmt.Errorf("vision: encode png: %w", err)
	}
	return nil
}

// DecodePNG reads a PNG into an Image. An 8-bit grayscale PNG's bytes
// are the frame's bytes, so EncodePNG round-trips bit for bit; any
// other image is converted to luma.
func DecodePNG(r io.Reader) (*Image, error) {
	src, err := png.Decode(r)
	if err != nil {
		return nil, fmt.Errorf("vision: decode png: %w", err)
	}
	bounds := src.Bounds()
	im := NewImage(bounds.Dx(), bounds.Dy())
	gray, _ := src.(*image.Gray)
	for y := 0; y < im.H; y++ {
		row := im.Pix[y*im.W : (y+1)*im.W]
		if gray != nil {
			copy(row, gray.Pix[gray.PixOffset(bounds.Min.X, bounds.Min.Y+y):])
			continue
		}
		for x := range row {
			r16, g16, b16, _ := src.At(bounds.Min.X+x, bounds.Min.Y+y).RGBA()
			row[x] = quantize((0.299*float64(r16) + 0.587*float64(g16) + 0.114*float64(b16)) / 0xffff)
		}
	}
	return im, nil
}
