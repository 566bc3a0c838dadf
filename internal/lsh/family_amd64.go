package lsh

import "approxcache/internal/feature"

// hasAVX2 reports whether signatures run signBlocksAVX2.
var hasAVX2 = feature.HasAVX2()

// signBlocksAVX2 is signBlocksGo in assembly, one YMM lane per
// hyperplane (family_amd64.s). len(planes) is a positive multiple of
// len(v)*planeBlock and words holds a bit per plane.
//
//go:noescape
func signBlocksAVX2(v, planes []float64, words []uint64)
