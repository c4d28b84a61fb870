//go:build race

package zeroround

// raceEnabled reports whether the race detector is compiled in: under it
// sync.Pool drops a random share of the items put back, so pool-reuse
// checks cannot hold.
const raceEnabled = true
