//go:build race

package core

// raceEnabled: under the race detector sync.Pool drops a share of what
// is put back, so pooled paths allocate and alloc counts mean nothing.
const raceEnabled = true
