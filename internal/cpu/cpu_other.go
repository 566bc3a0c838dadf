//go:build !amd64

package cpu

// detectAVX2 is false off amd64: the Go kernels are the only ones.
func detectAVX2() bool { return false }
