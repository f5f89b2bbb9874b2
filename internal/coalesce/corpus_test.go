package coalesce_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/cfggen"
	"repro/internal/coalesce"
	"repro/internal/congruence"
	"repro/internal/dom"
	"repro/internal/interference"
	"repro/internal/ir"
	"repro/internal/livecheck"
	"repro/internal/liveness"
	"repro/internal/sreedhar"
	"repro/internal/ssa"
)

// corpusCase is one function of the φ/copy-dense coalescing corpus with
// Method I copies already inserted, ready for class-level coalescing.
type corpusCase struct {
	f    *ir.Func
	ins  *sreedhar.Insertion
	affs []sreedhar.Affinity
}

// coalesceCorpus generates the corpus (wide switch joins, a large
// shared-variable pool, most copies kept as affinities) and runs copy
// insertion on it.
func coalesceCorpus(scale float64) []corpusCase {
	var out []corpusCase
	for _, p := range []struct {
		name string
		seed int64
	}{
		{"phidense-a", 5003},
		{"copydense-b", 6007},
		{"widejoin-c", 7001},
	} {
		for _, f := range cfggen.GenerateLarge(cfggen.LargeCoalesceProfile(p.name, p.seed, scale)) {
			sreedhar.SplitDuplicatePredEdges(f)
			sreedhar.SplitBranchDefEdges(f)
			ins, err := sreedhar.InsertCopies(f)
			if err != nil {
				panic(f.Name + ": " + err.Error())
			}
			affs := append([]sreedhar.Affinity(nil), ins.Affinities...)
			affs = append(affs, sreedhar.CollectRealCopies(f, ins)...)
			out = append(out, corpusCase{f: f, ins: ins, affs: affs})
		}
	}
	return out
}

// checker builds an interference checker over the case with the given
// query path (optimized or reference) and liveness backend.
func (c *corpusCase) checker(reference, useLiveCheck bool) *interference.Checker {
	dt := dom.Build(c.f)
	du := ir.NewDefUse(c.f)
	var live interference.BlockLiveness
	if useLiveCheck {
		live = livecheck.New(c.f, dt, du)
	} else {
		live = liveness.ComputeWith(c.f, liveness.Bitsets)
	}
	return &interference.Checker{
		F: c.f, DT: dt, DU: du, Live: live,
		Vals: ssa.Values(c.f, dt), Reference: reference,
	}
}

// coalesceOnce performs one class-level coalescing pass over the case with
// the Value variant and the linear machinery: fresh congruence classes,
// forced φ-node merges, then the affinity loop.
func (c *corpusCase) coalesceOnce(chk *interference.Checker) *coalesce.Result {
	classes := congruence.New(chk)
	for _, node := range c.ins.PhiNodes {
		for i := 1; i < len(node); i++ {
			classes.MergeForced(node[0], node[i])
		}
	}
	m := &coalesce.Machinery{Chk: chk, Classes: classes, Linear: true}
	return coalesce.Run(m, c.affs, coalesce.Value, false)
}

var corpusBackends = []struct {
	name      string
	livecheck bool
}{
	{"livecheck", true},
	{"liveness", false},
}

func TestCoalesceCorpusDeterministicAndValid(t *testing.T) {
	a := coalesceCorpus(0.05)
	b := coalesceCorpus(0.05)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("corpus sizes: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].f.Name != b[i].f.Name || a[i].f.String() != b[i].f.String() {
			t.Fatalf("case %d not deterministic", i)
		}
		if err := ir.Verify(a[i].f); err != nil {
			t.Fatalf("%s: %v", a[i].f.Name, err)
		}
		if len(a[i].ins.PhiNodes) == 0 || len(a[i].affs) == 0 {
			t.Fatalf("%s: corpus must be φ/copy-dense (φ nodes=%d affinities=%d)",
				a[i].f.Name, len(a[i].ins.PhiNodes), len(a[i].affs))
		}
	}
}

// TestCoalesceCorpusEnginesAgree: the optimized and reference query paths
// coalesce identically, affinity by affinity, on both liveness backends.
func TestCoalesceCorpusEnginesAgree(t *testing.T) {
	for _, c := range coalesceCorpus(0.03) {
		for _, bk := range corpusBackends {
			opt := c.coalesceOnce(c.checker(false, bk.livecheck))
			ref := c.coalesceOnce(c.checker(true, bk.livecheck))
			if len(opt.Statuses) != len(ref.Statuses) {
				t.Fatalf("%s/%s: status lengths differ", c.f.Name, bk.name)
			}
			for i := range opt.Statuses {
				if opt.Statuses[i] != ref.Statuses[i] {
					t.Fatalf("%s/%s: affinity %d: optimized=%v reference=%v",
						c.f.Name, bk.name, i, opt.Statuses[i], ref.Statuses[i])
				}
			}
		}
	}
}

// TestCoalesceCorpusGolden pins, per case and backend at scale 0.05, the
// copies the optimized path coalesces and leaves and the intersection
// tests it performs (testdata/corpus.golden). The values were recorded when
// the test was written;
// any change to them is a change in coalescing quality or in the query
// count the paper's Figure 6 argument rests on.
func TestCoalesceCorpusGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range coalesceCorpus(0.05) {
		for _, bk := range corpusBackends {
			chk := c.checker(false, bk.livecheck)
			res := c.coalesceOnce(chk)
			fmt.Fprintf(&b, "%s/%s coalesced=%d remaining=%d tests=%d\n",
				c.f.Name, bk.name, res.Removed, res.RemainingCount, chk.Queries)
		}
	}
	raw, err := os.ReadFile("testdata/corpus.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(raw) {
		t.Fatalf("coalescing results differ from testdata/corpus.golden:\n got:\n%s\nwant:\n%s", got, raw)
	}
}

// coalesceAllocs are the allocations of one optimized coalescing pass on
// each case × backend of the corpus at scale 0.05, as measured when the
// bound was set; TestCoalesceCorpusAllocs allows 20% more.
var coalesceAllocs = map[string]float64{
	"phidense-a_f0/livecheck":  176,
	"phidense-a_f0/liveness":   176,
	"phidense-a_f1/livecheck":  169,
	"phidense-a_f1/liveness":   169,
	"phidense-a_f2/livecheck":  91,
	"phidense-a_f2/liveness":   91,
	"copydense-b_f0/livecheck": 194,
	"copydense-b_f0/liveness":  194,
	"copydense-b_f1/livecheck": 95,
	"copydense-b_f1/liveness":  95,
	"copydense-b_f2/livecheck": 120,
	"copydense-b_f2/liveness":  120,
	"widejoin-c_f0/livecheck":  172,
	"widejoin-c_f0/liveness":   172,
	"widejoin-c_f1/livecheck":  175,
	"widejoin-c_f1/liveness":   175,
	"widejoin-c_f2/livecheck":  261,
	"widejoin-c_f2/liveness":   261,
}

// TestCoalesceCorpusAllocs bounds the allocations of the optimized
// coalescing path (a reused checker, fresh classes per pass) on every case
// of the corpus, for both liveness backends.
func TestCoalesceCorpusAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocations distort AllocsPerRun near the bound")
	}
	for _, c := range coalesceCorpus(0.05) {
		for _, bk := range corpusBackends {
			row := c.f.Name + "/" + bk.name
			chk := c.checker(false, bk.livecheck)
			got := testing.AllocsPerRun(5, func() { c.coalesceOnce(chk) })
			want, ok := coalesceAllocs[row]
			if !ok {
				t.Errorf("%s: no recorded allocation count", row)
			} else if got > 1.2*want {
				t.Errorf("%s: %v allocations per pass, bound %v (1.2 × %v)", row, got, 1.2*want, want)
			}
		}
	}
}
