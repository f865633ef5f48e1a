//go:build race

package database

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a random share of Puts, so a pooled scratch is not reliably warm
// and exact allocation pins do not hold.
const raceEnabled = true
