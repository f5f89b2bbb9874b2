//go:build race

package outofssa_test

// See race_off_test.go.
const raceEnabled = true
