package congruence_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cfggen"
	"repro/internal/congruence"
	"repro/internal/core"
	"repro/internal/interference"
	"repro/internal/ir"
	"repro/internal/sreedhar"
)

// fullWalkParents returns the dominance-forest parent of every member of
// the pre-DFS ordered list: the stack top when a walk over the whole list
// pushes the member.
func fullWalkParents(chk *interference.Checker, list []ir.VarID) []ir.VarID {
	var stack []ir.VarID
	out := make([]ir.VarID, len(list))
	for i, v := range list {
		for len(stack) > 0 && !chk.DefDominates(stack[len(stack)-1], v) {
			stack = stack[:len(stack)-1]
		}
		out[i] = ir.NoVar
		if len(stack) > 0 {
			out[i] = stack[len(stack)-1]
		}
		stack = append(stack, v)
	}
	return out
}

// forestError reports how the class of v breaks the forest invariant: its
// members out of pre-DFS order, or a stored parent that differs from the
// full walk's. It returns "" when the class is sound.
func forestError(c *congruence.Classes, v ir.VarID) string {
	chk := c.Checker()
	ms := c.Members(v)
	for i := 1; i < len(ms); i++ {
		if d := chk.DefOrder(ms[i-1], ms[i]); d > 0 || d == 0 && ms[i-1] > ms[i] {
			return fmt.Sprintf("class of %s out of pre-DFS order at %d", chk.F.VarName(v), i)
		}
	}
	for i, want := range fullWalkParents(chk, ms) {
		if got := c.ForestParent(ms[i]); got != want {
			return fmt.Sprintf("parent of %s = %s, full walk gives %s",
				chk.F.VarName(ms[i]), name(chk.F, got), name(chk.F, want))
		}
	}
	return ""
}

// reorderSrc makes virtualization move a definition across a member of its
// own class: the dead φ y absorbs a (the argument of y's φ along the back
// edge), a is later materialized, and its definition moves from the φ to
// the begin parallel copy — past y, which has the larger ID.
const reorderSrc = `
func reorder {
entry:
  n = param 0
  i0 = const 0
  one = const 1
  jump head
latch:
  a1 = add a one
  jump head
head:
  y = phi entry:i0 latch:a
  a = phi entry:i0 latch:a1
  c = cmplt a n
  br c latch exit
exit:
  print a
  ret a
}
`

// TestForestParentsThroughEngine checks the forest invariant after every
// Merge, MergeForced, MergeSimple and definition move the translator
// performs, across every strategy, virtualized runs included: each stored
// parent must equal the one a full walk over the class computes.
func TestForestParentsThroughEngine(t *testing.T) {
	p := cfggen.DefaultProfile("forest", 900)
	p.Funcs = 6
	funcs := cfggen.Generate(p)
	funcs = append(funcs, cfggen.GenerateLarge(cfggen.LargeTranslateProfile("forest", 901, 0.2))...)
	funcs = append(funcs, ir.MustParse(reorderSrc))

	var opts []core.Options
	for _, s := range append(append([]core.Strategy(nil), core.Strategies...), core.Optimistic) {
		opt := core.Options{Strategy: s, Linear: true, LiveCheck: true}
		if s == core.SreedharIII {
			opt = core.Options{Strategy: s, Virtualize: true}
		}
		opts = append(opts, opt)
	}
	opts = append(opts,
		core.Options{Strategy: core.Value, Virtualize: true, Linear: true, LiveCheck: true},
		core.Options{Strategy: core.Sharing, Virtualize: true, Linear: true},
		core.Options{Strategy: core.Sharing, Linear: true, LiveCheck: true, SplitCriticalEdges: true},
		core.Options{Strategy: core.Value, Linear: true, LiveCheck: true, ReferenceQueries: true},
	)

	var failure string
	checks := 0
	congruence.SetCheckHook(func(c *congruence.Classes, v ir.VarID) {
		checks++
		if failure == "" {
			failure = forestError(c, v)
		}
	})
	defer congruence.SetCheckHook(nil)
	for _, opt := range opts {
		for _, f := range funcs {
			if _, err := core.Translate(ir.Clone(f), opt); err != nil {
				t.Fatalf("%+v %s: %v", opt, f.Name, err)
			}
			if failure != "" {
				t.Fatalf("%+v %s: %s", opt, f.Name, failure)
			}
		}
	}
	if checks == 0 {
		t.Fatal("the check hook never ran")
	}
}

// TestPrefixSkipMatchesFullWalk compares the prefix-skipping linear checks
// with the full walk (a Reference instance driven through the same merges)
// on random class pairs in both argument orders: the answer, the number of
// intersection tests, and equal_anc_out of every member must agree.
func TestPrefixSkipMatchesFullWalk(t *testing.T) {
	p := cfggen.DefaultProfile("prefix", 910)
	p.Funcs = 4
	funcs := cfggen.Generate(p)
	funcs = append(funcs, cfggen.GenerateLarge(cfggen.LargeTranslateProfile("prefix", 911, 0.2))...)
	rng := rand.New(rand.NewSource(912))
	pairs := 0
	for fi, f := range funcs {
		sreedhar.SplitDuplicatePredEdges(f)
		sreedhar.SplitBranchDefEdges(f)
		ins, err := sreedhar.InsertCopies(f)
		if err != nil {
			t.Fatal(err)
		}
		chk := newChecker(f, fi%2 == 0)
		opt := congruence.New(chk)
		ref := congruence.New(chk)
		ref.Reference = true
		for _, node := range ins.PhiNodes {
			for i := 1; i < len(node); i++ {
				opt.MergeForced(node[0], node[i])
				ref.MergeForced(node[0], node[i])
			}
		}
		compare := func(a, b ir.VarID, pure bool) bool {
			t.Helper()
			pairs++
			oTests, q := opt.Tests, chk.Queries
			var got, want bool
			if pure {
				got = opt.InterferesLinearPure(a, b)
			} else {
				got = opt.InterferesLinear(a, b)
			}
			oTests, oQueries := opt.Tests-oTests, chk.Queries-q
			rTests, q := ref.Tests, chk.Queries
			if pure {
				want = ref.InterferesLinearPure(a, b)
			} else {
				want = ref.InterferesLinear(a, b)
			}
			rTests, rQueries := ref.Tests-rTests, chk.Queries-q
			if got != want || oTests != rTests || oQueries != rQueries {
				t.Fatalf("%s: check(%s, %s) pure=%v: skip gives %v after %d tests / %d queries, full walk %v after %d / %d",
					f.Name, f.VarName(a), f.VarName(b), pure, got, oTests, oQueries, want, rTests, rQueries)
			}
			if !pure {
				for _, m := range append(opt.Members(a), opt.Members(b)...) {
					if o, r := opt.EqualAncOut(m), ref.EqualAncOut(m); o != r {
						t.Fatalf("%s: equal_anc_out(%s) = %s, full walk %s",
							f.Name, f.VarName(m), name(f, o), name(f, r))
					}
				}
			}
			return got
		}
		affs := append([]sreedhar.Affinity(nil), ins.Affinities...)
		rng.Shuffle(len(affs), func(i, j int) { affs[i], affs[j] = affs[j], affs[i] })
		for k, a := range affs {
			for r := 0; r < 2; r++ {
				x, y := ir.VarID(rng.Intn(len(f.Vars))), ir.VarID(rng.Intn(len(f.Vars)))
				if opt.SameClass(x, y) {
					continue
				}
				pure := rng.Intn(2) == 0
				compare(x, y, pure)
				compare(y, x, pure)
			}
			if opt.SameClass(a.Dst, a.Src) {
				continue
			}
			pure := k%3 == 0 // exercise MergeSimple after the pure test
			if compare(a.Dst, a.Src, pure) {
				continue
			}
			if pure {
				opt.MergeSimple(a.Dst, a.Src)
				ref.MergeSimple(a.Dst, a.Src)
			} else {
				opt.Merge(a.Dst, a.Src)
				ref.Merge(a.Dst, a.Src)
			}
			if msg := forestError(opt, a.Dst); msg != "" {
				t.Fatalf("%s: %s", f.Name, msg)
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no class pairs compared")
	}
}
