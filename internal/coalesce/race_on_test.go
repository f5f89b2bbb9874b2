//go:build race

package coalesce_test

// See race_off_test.go.
const raceEnabled = true
