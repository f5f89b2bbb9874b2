//go:build !race

package coalesce_test

// raceEnabled reports whether the race detector is compiled in; the
// allocation bounds skip under it, since the race runtime allocates.
const raceEnabled = false
