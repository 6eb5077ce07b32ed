//go:build !race

package fft

// raceEnabled reports a race-detector build; see race_test.go.
const raceEnabled = false
