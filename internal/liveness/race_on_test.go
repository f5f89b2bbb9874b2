//go:build race

package liveness_test

// See race_off_test.go.
const raceEnabled = true
