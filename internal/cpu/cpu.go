// Package cpu reads once, at start-up, which vector instructions this
// process may use. It is the one place the tree asks the CPU: every
// assembly kernel (vision's frame diff, feature's distances and
// histogram, lsh's signatures) dispatches on HasAVX2, and its Go
// counterpart stays as the reference and the path of every other host.
package cpu

// HasAVX2 reports whether the AVX2 kernels run: the CPU has AVX and
// AVX2, and the operating system saves the YMM registers. It is false
// off amd64. Kernels read it on every call, never a copy, so a test can
// clear it to run the Go kernels on an AVX2 host. Nothing but such a
// test may write it, and only while no other test or goroutine runs:
// the kernels read it without synchronisation.
var HasAVX2 = detectAVX2()
