package feature

import (
	"math/bits"

	"approxcache/internal/cpu"
	"approxcache/internal/vision"
)

// The histogram's two counting kernels. Both put level k in bin
// ⌊k·bins/255⌋, white in the last, and leave in out[b] the number of
// pixels in bin b as an exact float64: a count is an integer, so every
// float the descriptor is built from is the same whichever kernel ran.

// vecBins is the most bins countBinsAVX2 counts: each pass over the
// pixels counts 8 bins, and from 64 bins on (8 passes) the Go kernel's
// single pass is as fast.
const vecBins = 32

// countBins counts pix into len(out) bins, through countBinsAVX2 on an
// AVX2 host when len(out) is a power of two up to vecBins, through
// countLevels otherwise.
func countBins(out []float64, pix []uint8) {
	if shift, ok := levelShift(len(out)); ok && len(out) <= vecBins && cpu.HasAVX2 {
		countBinsAVX2(out, pix, shift)
		return
	}
	countLevels(out, pix)
}

// levelShift returns s with ⌊k·bins/255⌋ capped at bins−1 equal to k>>s
// for every level k, when bins = 2^(8−s) is a power of two up to 256:
// k·bins/255 = k/2^s + k/(255·2^s), and below white the second term,
// under 1/2^s, cannot carry k/2^s, whose fraction is at most 1 − 1/2^s,
// past the next integer; white's bins is capped to bins−1 = 255>>s.
func levelShift(bins int) (shift uint, ok bool) {
	if bins <= 0 || bins > vision.MaxLevel+1 || bins&(bins-1) != 0 {
		return 0, false
	}
	return 8 - uint(bits.TrailingZeros(uint(bins))), true
}

// countBinsAVX2 counts the whole 32-pixel chunks of pix in assembly
// (histBinsAVX2) and the rest here; len(out) = 2^(8−shift) ≤ vecBins.
func countBinsAVX2(out []float64, pix []uint8, shift uint) {
	var counts [vecBins]uint64
	if n := len(pix) &^ 31; n > 0 {
		histBinsAVX2(pix[:n], uint64(shift), counts[:(len(out)+7)&^7])
		pix = pix[n:]
	}
	for _, p := range pix {
		counts[p>>shift]++
	}
	for b := range out {
		out[b] = float64(counts[b])
	}
}

// countLevels is the histogram's Go kernel, the reference
// countBinsAVX2 is tested against: it counts the 256 levels, then folds
// each into its bin.
func countLevels(out []float64, pix []uint8) {
	// Neighbouring pixels tend to share a level, and an increment waits
	// for the previous store to the same counter: alternate pixels count
	// into separate arrays.
	var even, odd [vision.MaxLevel + 1]int32
	i := 0
	for ; i+1 < len(pix); i += 2 {
		even[pix[i]]++
		odd[pix[i+1]]++
	}
	if i < len(pix) {
		even[pix[i]]++
	}
	clear(out)
	bins := len(out)
	for k := range even {
		out[min(k*bins/vision.MaxLevel, bins-1)] += float64(even[k] + odd[k])
	}
}
