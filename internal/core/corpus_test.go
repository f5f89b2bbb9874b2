package core

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/cfggen"
	"repro/internal/ir"
)

// corpusProfile names one generated workload of the large-CFG corpora.
type corpusProfile struct {
	name string
	seed int64
}

// translateCorpus generates the end-to-end translation corpus: functions
// that exercise every phase — φ pressure for copy insertion, kept copies
// for the coalescer, swap cycles for the sequentializer.
func translateCorpus(scale float64) []*ir.Func {
	var out []*ir.Func
	for _, p := range []corpusProfile{{"endtoend-a", 8009}, {"phimix-b", 9001}} {
		out = append(out, cfggen.GenerateLarge(cfggen.LargeTranslateProfile(p.name, p.seed, scale))...)
	}
	return out
}

// coalesceCorpus generates the φ/copy-dense coalescing corpus, in SSA
// form (translation inserts the copies itself).
func coalesceCorpus(scale float64) []*ir.Func {
	var out []*ir.Func
	for _, p := range []corpusProfile{{"phidense-a", 5003}, {"copydense-b", 6007}, {"widejoin-c", 7001}} {
		out = append(out, cfggen.GenerateLarge(cfggen.LargeCoalesceProfile(p.name, p.seed, scale))...)
	}
	return out
}

// fig5Options is the machinery Figure 5 runs each strategy with: the fast
// combination, except for the Sreedhar III baseline, which is inherently
// virtualized with an interference graph.
func fig5Options(s Strategy) Options {
	if s == SreedharIII {
		return Options{Strategy: s, Virtualize: true, UseGraph: true}
	}
	return Options{Strategy: s, Linear: true, LiveCheck: true}
}

func TestTranslateCorpusDeterministicAndValid(t *testing.T) {
	a := translateCorpus(0.05)
	b := translateCorpus(0.05)
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
		phis := 0
		for _, blk := range a[i].Blocks {
			phis += len(blk.Phis)
		}
		if phis == 0 {
			t.Fatalf("%s: corpus must carry φ pressure", a[i].Name)
		}
	}
}

// TestTranslateEnginesAgree: for every case and Figure 5 strategy, the
// pooled engine (CloneInto + reused scratch) and the reference engine
// (Clone + ReferenceAlloc) emit byte-identical code and identical copy
// counts.
func TestTranslateEnginesAgree(t *testing.T) {
	sc := NewScratch()
	for _, f := range translateCorpus(0.03) {
		dst := ir.NewFunc("")
		for _, s := range Strategies {
			opt := fig5Options(s)
			ir.CloneInto(dst, f)
			stP, err := TranslateInto(dst, opt, nil, sc)
			if err != nil {
				t.Fatalf("%s/%v pooled: %v", f.Name, s, err)
			}
			refOpt := opt
			refOpt.ReferenceAlloc = true
			refc := ir.Clone(f)
			stR, err := Translate(refc, refOpt)
			if err != nil {
				t.Fatalf("%s/%v reference: %v", f.Name, s, err)
			}
			if dst.String() != refc.String() {
				t.Fatalf("%s/%v: engines emit different code", f.Name, s)
			}
			if stP.RemainingCopies != stR.RemainingCopies || stP.FinalCopies != stR.FinalCopies {
				t.Fatalf("%s/%v: stats diverge: pooled %d/%d reference %d/%d", f.Name, s,
					stP.RemainingCopies, stP.FinalCopies, stR.RemainingCopies, stR.FinalCopies)
			}
		}
	}
}

// TestCorpusCopiesGolden pins, for every case of the translate and
// coalesce corpora at scale 0.05 and every Figure 5 strategy, the copies
// left after coalescing, the copies in the output, the copies coalesced
// and the intersection tests performed (testdata/corpus_copies.golden,
// recorded when the test was written). Any change is a change in
// translation quality or in the query count of Figure 6.
func TestCorpusCopiesGolden(t *testing.T) {
	var b strings.Builder
	for _, f := range append(translateCorpus(0.05), coalesceCorpus(0.05)...) {
		for _, s := range Strategies {
			st, err := Translate(ir.Clone(f), fig5Options(s))
			if err != nil {
				t.Fatalf("%s/%v: %v", f.Name, s, err)
			}
			fmt.Fprintf(&b, "%s %s remaining=%d final=%d coalesced=%d tests=%d\n", f.Name, s,
				st.RemainingCopies, st.FinalCopies, st.Affinities-st.RemainingCopies, st.IntersectionTests)
		}
	}
	checkGolden(t, "testdata/corpus_copies.golden", b.String())
}

// checkGolden compares got with the golden file line by line.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, have := strings.Split(string(raw), "\n"), strings.Split(got, "\n")
	for i := range max(len(want), len(have)) {
		w, h := "", ""
		if i < len(want) {
			w = want[i]
		}
		if i < len(have) {
			h = have[i]
		}
		if w != h {
			t.Fatalf("%s line %d:\n got  %q\n want %q", path, i+1, h, w)
		}
	}
}

// translateAllocs are the allocations of one pooled translation (CloneInto
// plus TranslateInto with a reused Scratch) of each case × Figure 5
// strategy of the translate corpus at scale 0.05, as measured when the
// bound was set; TestTranslateCorpusAllocs allows 20% more.
var translateAllocs = map[string]float64{
	"endtoend-a_f0/Intersect":    232,
	"endtoend-a_f0/Sreedhar I":   446,
	"endtoend-a_f0/Chaitin":      434,
	"endtoend-a_f0/Value":        212,
	"endtoend-a_f0/Sreedhar III": 603,
	"endtoend-a_f0/Value+IS":     207,
	"endtoend-a_f0/Sharing":      209,
	"endtoend-a_f1/Intersect":    195,
	"endtoend-a_f1/Sreedhar I":   304,
	"endtoend-a_f1/Chaitin":      302,
	"endtoend-a_f1/Value":        180,
	"endtoend-a_f1/Sreedhar III": 439,
	"endtoend-a_f1/Value+IS":     180,
	"endtoend-a_f1/Sharing":      181,
	"phimix-b_f0/Intersect":      186,
	"phimix-b_f0/Sreedhar I":     284,
	"phimix-b_f0/Chaitin":        284,
	"phimix-b_f0/Value":          186,
	"phimix-b_f0/Sreedhar III":   325,
	"phimix-b_f0/Value+IS":       186,
	"phimix-b_f0/Sharing":        187,
	"phimix-b_f1/Intersect":      168,
	"phimix-b_f1/Sreedhar I":     272,
	"phimix-b_f1/Chaitin":        272,
	"phimix-b_f1/Value":          168,
	"phimix-b_f1/Sreedhar III":   300,
	"phimix-b_f1/Value+IS":       168,
	"phimix-b_f1/Sharing":        169,
}

// TestTranslateCorpusAllocs bounds the allocations of the pooled
// translation path on every case of the translate corpus, for every
// Figure 5 strategy.
func TestTranslateCorpusAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocations distort AllocsPerRun near the bound")
	}
	sc := NewScratch()
	dst := ir.NewFunc("")
	for _, f := range translateCorpus(0.05) {
		for _, s := range Strategies {
			row := f.Name + "/" + s.String()
			opt := fig5Options(s)
			got := testing.AllocsPerRun(5, func() {
				ir.CloneInto(dst, f)
				if _, err := TranslateInto(dst, opt, nil, sc); err != nil {
					t.Fatal(err)
				}
			})
			want, ok := translateAllocs[row]
			if !ok {
				t.Errorf("%s: no recorded allocation count", row)
			} else if got > 1.2*want {
				t.Errorf("%s: %v allocations per translation, bound %v (1.2 × %v)", row, got, 1.2*want, want)
			}
		}
	}
}
