//go:build race

package maxis

// The race detector instruments allocations and sync.Pool, so the strict
// zero-alloc assertions cannot hold under -race and are skipped there.
const raceEnabled = true
