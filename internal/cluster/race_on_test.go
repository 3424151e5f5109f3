//go:build race

package cluster

// The race detector instruments allocations and sync.Pool, so the
// allocation assertions cannot hold under -race and are skipped there.
const raceEnabled = true
