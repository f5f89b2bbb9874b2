//go:build !race

package liveness_test

// raceEnabled reports whether the race detector is compiled in; the
// allocation bounds skip under it, since the race runtime allocates.
const raceEnabled = false
