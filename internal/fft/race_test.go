//go:build race

package fft

// raceEnabled reports a race-detector build. Under the race detector
// sync.Pool.Put drops items at random, so a pool-backed path allocates and
// allocation counts say nothing about the code.
const raceEnabled = true
