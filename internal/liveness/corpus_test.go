package liveness_test

import (
	"testing"

	"repro/internal/cfggen"
	"repro/internal/ir"
	"repro/internal/liveness"
)

// largeCorpus generates the large-CFG liveness corpus: deeply nested
// loops, wide switch joins and dense φ pressure (thousands of blocks per
// function at scale 1).
func largeCorpus(scale float64) []*ir.Func {
	var out []*ir.Func
	for _, p := range []struct {
		name string
		seed int64
	}{
		{"deeploops-a", 1009},
		{"widejoins-b", 2003},
		{"phiheavy-c", 3001},
	} {
		out = append(out, cfggen.GenerateLarge(cfggen.LargeLivenessProfile(p.name, p.seed, scale))...)
	}
	return out
}

var backends = []struct {
	name string
	be   liveness.Backend
}{
	{"bitsets", liveness.Bitsets},
	{"ordered", liveness.OrderedSets},
}

func TestLivenessCorpusDeterministicAndValid(t *testing.T) {
	a := largeCorpus(0.05)
	b := largeCorpus(0.05)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("corpus sizes: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].String() != b[i].String() {
			t.Fatalf("case %d not deterministic", i)
		}
		if err := ir.Verify(a[i]); err != nil {
			t.Fatalf("%s: %v", a[i].Name, err)
		}
	}
}

// TestLivenessCorpusEnginesAgree: the worklist engine and the round-robin
// reference agree on every (variable, block) of the large-CFG corpus.
func TestLivenessCorpusEnginesAgree(t *testing.T) {
	for _, f := range largeCorpus(0.03) {
		got := liveness.ComputeWith(f, liveness.Bitsets)
		want := liveness.ComputeReference(f, liveness.Bitsets)
		for _, b := range f.Blocks {
			for v := range f.Vars {
				vid := ir.VarID(v)
				if got.LiveInBlock(vid, b.ID) != want.LiveInBlock(vid, b.ID) ||
					got.LiveOutBlock(vid, b.ID) != want.LiveOutBlock(vid, b.ID) {
					t.Fatalf("%s/%s: engines disagree on %s", f.Name, b.Name, f.VarName(vid))
				}
			}
		}
	}
}

// livenessAllocs are liveness.ComputeWith's allocations per call on each
// case × backend of the corpus at scale 0.05, as measured when the bound
// was set; TestLivenessCorpusAllocs allows 20% more.
var livenessAllocs = map[string]float64{
	"deeploops-a_f0/bitsets": 6,
	"deeploops-a_f0/ordered": 414,
	"deeploops-a_f1/bitsets": 6,
	"deeploops-a_f1/ordered": 406,
	"deeploops-a_f2/bitsets": 6,
	"deeploops-a_f2/ordered": 405,
	"deeploops-a_f3/bitsets": 6,
	"deeploops-a_f3/ordered": 465,
	"widejoins-b_f0/bitsets": 6,
	"widejoins-b_f0/ordered": 462,
	"widejoins-b_f1/bitsets": 6,
	"widejoins-b_f1/ordered": 467,
	"widejoins-b_f2/bitsets": 6,
	"widejoins-b_f2/ordered": 415,
	"widejoins-b_f3/bitsets": 6,
	"widejoins-b_f3/ordered": 431,
	"phiheavy-c_f0/bitsets":  6,
	"phiheavy-c_f0/ordered":  460,
	"phiheavy-c_f1/bitsets":  6,
	"phiheavy-c_f1/ordered":  409,
	"phiheavy-c_f2/bitsets":  6,
	"phiheavy-c_f2/ordered":  416,
	"phiheavy-c_f3/bitsets":  6,
	"phiheavy-c_f3/ordered":  399,
}

// TestLivenessCorpusAllocs bounds the allocations of liveness.ComputeWith
// on every case of the corpus, for both backends.
func TestLivenessCorpusAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocations distort AllocsPerRun near the bound")
	}
	for _, f := range largeCorpus(0.05) {
		for _, bk := range backends {
			row := f.Name + "/" + bk.name
			got := testing.AllocsPerRun(5, func() { liveness.ComputeWith(f, bk.be) })
			want, ok := livenessAllocs[row]
			if !ok {
				t.Errorf("%s: no recorded allocation count", row)
			} else if got > 1.2*want {
				t.Errorf("%s: %v allocations per call, bound %v (1.2 × %v)", row, got, 1.2*want, want)
			}
		}
	}
}
