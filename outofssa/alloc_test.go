package outofssa_test

import (
	"context"
	"testing"

	"repro/outofssa"
)

// translateAllAllocs is the allocation count of one TranslateAll call over
// the 16-function batch of TestTranslateAllAllocs, as measured when the
// bound was set; the test allows 20% more.
const translateAllAllocs = 2763

// TestTranslateAllAllocs bounds the allocations of the served batch path:
// one Translator.TranslateAll call (default options, one worker, so the
// count does not depend on scheduling) over a batch of generated
// functions. Cloning the inputs happens outside the measurement.
func TestTranslateAllAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocations distort AllocsPerRun near the bound")
	}
	prof := outofssa.DefaultProfile("allocs", 61)
	prof.Funcs = 16
	pristine := outofssa.Generate(prof)
	tr, err := outofssa.New(outofssa.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	const runs = 5
	batches := make([][]*outofssa.Func, runs+1) // AllocsPerRun adds a warm-up call
	for i := range batches {
		for _, f := range pristine {
			batches[i] = append(batches[i], outofssa.Clone(f))
		}
	}
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		if _, err := tr.TranslateAll(context.Background(), batches[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if got > 1.2*translateAllAllocs {
		t.Fatalf("TranslateAll allocates %v times per call, bound %v (1.2 × %v)", got, 1.2*translateAllAllocs, translateAllAllocs)
	}
}
