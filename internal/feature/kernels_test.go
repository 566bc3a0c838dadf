package feature

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// distInput decodes a fuzz input into a query, eight rows of the same
// length (16 to 288, the DNN's descriptor) and a bound. data[0] picks
// the length, data[1] the bound, data[2:10] seeds the random values,
// and each later triple (lo, hi, kind) overwrites component lo|hi<<8 of
// q, row 0, …, row 7 (counted in that order) with ±0, NaN, ±Inf or a
// subnormal.
func distInput(data []byte) (q []float64, rows [8][]float64, bound float64) {
	var hdr [10]byte
	copy(hdr[:], data)
	n := 16 + int(hdr[0])%273
	rng := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(hdr[2:]))))
	q = make([]float64, n)
	for d := range q {
		q[d] = 0.5 + 0.3*rng.NormFloat64()
	}
	// Rows scatter around q at a spread near the group's, and the groups'
	// spreads differ by up to 2× either way, so under a bound at some
	// row's partial sum either group can give up first, at any block.
	// Now and then a group is exact copies, whose zero sums meet a zero
	// bound.
	base := math.Ldexp(1, -8+rng.Intn(9))
	var group float64
	for r := range rows {
		if r%4 == 0 {
			group = math.Ldexp(base, rng.Intn(3)-1)
			if rng.Intn(4) == 0 {
				group = 0
			}
		}
		spread := group * (1 + rng.Float64())
		rows[r] = make([]float64, n)
		for d := range rows[r] {
			rows[r][d] = q[d] + spread*rng.NormFloat64()
		}
	}
	specials := [...]float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64 * 12345}
	for i := len(hdr); i+3 <= len(data); i += 3 {
		c := (int(data[i]) | int(data[i+1])<<8) % (9 * n)
		v := specials[int(data[i+2])%len(specials)]
		if c < n {
			q[c] = v
		} else {
			rows[c/n-1][c%n] = v
		}
	}
	// partial is a random row's sum over a random whole number of
	// blocks: a bound that one group crosses at a block the other
	// group may not have reached.
	partial := func() float64 {
		r := rows[rng.Intn(len(rows))]
		end := ScanBlock * (1 + rng.Intn(n/ScanBlock))
		s, _ := SqDist(q[:end], r[:end], math.Inf(1))
		return s
	}
	full, _ := SqDist(q, rows[0], math.Inf(1))
	bounds := [...]float64{
		math.NaN(), math.Inf(1), -1, 0, math.Copysign(0, -1), 0.0625, math.SmallestNonzeroFloat64,
		full, full * 0.5, full * 1.1, partial(), partial(), partial(), partial(),
	}
	return q, rows, bounds[int(hdr[1])%len(bounds)]
}

// sameFloatBits is float64 equality bit for bit, with every NaN equal
// to every other: which payload a NaN sum carries depends on the operand
// order the compiler picks for each add, and the fuzzing build, with its
// coverage counters, picks differently from the plain one.
func sameFloatBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// FuzzDistKernels checks the AVX2 distance kernels against the Go
// chains bit for bit: SqDist4 on each group of four rows and SqDist4x2
// on both must return the sums, the ok flags and, where a group gave
// up, the partial sums of sqDist4From run from dimension 0.
func FuzzDistKernels(f *testing.F) {
	if !hasAVX2 {
		f.Skip("host has no AVX2: SqDist4 and SqDist4x2 run the Go chains alone, nothing to compare")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 128; i++ {
		seed := make([]byte, 10, 100)
		rng.Read(seed)
		// Finite inputs, a few special components, or many.
		for j := 0; j < []int{0, 1, 3, 30}[i%4]; j++ {
			seed = append(seed, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(6)))
		}
		f.Add(seed)
	}
	f.Add([]byte{0, 7})                                   // length 16, bound at row 0's distance
	f.Add([]byte{64, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 2}) // length 80, NaN bound, NaN in q[0]
	f.Fuzz(func(t *testing.T, data []byte) {
		q, rows, bound := distInput(data)
		var want [8]float64
		var wantOK [2]bool
		for g := 0; g < 2; g++ {
			r := rows[4*g : 4*g+4]
			w0, w1, w2, w3, wok := sqDist4From(q, r[0], r[1], r[2], r[3], 0, 0, 0, 0, 0, bound)
			want[4*g], want[4*g+1], want[4*g+2], want[4*g+3], wantOK[g] = w0, w1, w2, w3, wok
			g0, g1, g2, g3, gok := SqDist4(q, r[0], r[1], r[2], r[3], bound)
			got := [4]float64{g0, g1, g2, g3}
			if gok != wok {
				t.Fatalf("len %d bound %v group %d: SqDist4 ok %v, Go chains %v", len(q), bound, g, gok, wok)
			}
			for i, x := range got {
				if !sameFloatBits(x, want[4*g+i]) {
					t.Fatalf("len %d bound %v group %d lane %d: SqDist4 %v (%#x), Go chains %v (%#x)",
						len(q), bound, g, i, x, math.Float64bits(x), want[4*g+i], math.Float64bits(want[4*g+i]))
				}
			}
		}
		var s [8]float64
		ok0, ok1 := SqDist4x2(q, &rows, bound, &s)
		if ok0 != wantOK[0] || ok1 != wantOK[1] {
			t.Fatalf("len %d bound %v: SqDist4x2 ok %v %v, Go chains %v %v", len(q), bound, ok0, ok1, wantOK[0], wantOK[1])
		}
		for i, x := range s {
			if !sameFloatBits(x, want[i]) {
				t.Fatalf("len %d bound %v lane %d: SqDist4x2 %v (%#x), Go chains %v (%#x)",
					len(q), bound, i, x, math.Float64bits(x), want[i], math.Float64bits(want[i]))
			}
		}
	})
}
