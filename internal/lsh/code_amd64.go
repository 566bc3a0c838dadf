package lsh

// filterCodesAVX2 is filterCodes' kernel over whole groups of four
// (code_amd64.s): len(cands) is a multiple of 4, and every candidate's
// code lies inside codes.
//
//go:noescape
func filterCodesAVX2(q *[codeDims]uint8, codes []uint8, cands []int32, limit int32) int
