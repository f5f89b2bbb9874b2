package core_test

import (
	"testing"

	"repro/internal/cfggen"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/outofssa/bench"
)

// oracleOptions returns the machinery the Figure 5 run uses for s, with the
// reference query path toggled.
func oracleOptions(s core.Strategy, reference bool) core.Options {
	opt := core.Options{Strategy: s, Linear: true, LiveCheck: true, ReferenceQueries: reference}
	if s == core.SreedharIII {
		opt = core.Options{Strategy: s, Virtualize: true, ReferenceQueries: reference}
	}
	return opt
}

// TestStrategiesReferenceOracle: for every Figure 5 strategy, the
// optimized query path (binary-search LiveAfter, packed def-point keys,
// pooled congruence scratch) and the kept reference path make identical
// per-affinity coalescing decisions (Result.Statuses) — on the SPEC
// stand-in suite and on the φ/copy-dense coalescing corpus shape alike.
func TestStrategiesReferenceOracle(t *testing.T) {
	var funcs []*ir.Func
	for _, b := range bench.Suite(0.05) {
		funcs = append(funcs, b.Funcs...)
	}
	funcs = append(funcs, cfggen.GenerateLarge(cfggen.LargeCoalesceProfile("oracle", 971, 0.04))...)

	for _, s := range core.Strategies {
		for _, f := range funcs {
			optRes := coalesceDecisions(t, ir.Clone(f), oracleOptions(s, false))
			refRes := coalesceDecisions(t, ir.Clone(f), oracleOptions(s, true))
			if len(optRes) != len(refRes) {
				t.Fatalf("%v/%s: status lengths differ: %d vs %d", s, f.Name, len(optRes), len(refRes))
			}
			for i := range optRes {
				if optRes[i] != refRes[i] {
					t.Fatalf("%v/%s: affinity %d decided differently: optimized=%v reference=%v",
						s, f.Name, i, optRes[i], refRes[i])
				}
			}
		}
	}
}

// coalesceDecisions runs the first three translation phases on f and
// returns the per-affinity statuses as plain ints.
func coalesceDecisions(t *testing.T, f *ir.Func, opt core.Options) []int {
	t.Helper()
	tr, err := core.NewTranslation(f, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []func() error{tr.Insert, tr.Analyze, tr.Coalesce} {
		if err := phase(); err != nil {
			t.Fatal(err)
		}
	}
	res := tr.CoalesceResult()
	out := make([]int, len(res.Statuses))
	for i, s := range res.Statuses {
		out[i] = int(s)
	}
	return out
}
