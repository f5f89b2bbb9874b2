package dom_test

import (
	"testing"
	"testing/quick"

	"repro/internal/cfggen"
	"repro/internal/dom"
	"repro/internal/ir"
)

const diamond = `
func d {
entry:
  p = param 0
  br p t e
t:
  jump j
e:
  jump j
j:
  x = phi t:p e:p
  br x loop out
loop (freq 10):
  q = add x x
  br q loop out
out:
  ret p
}
`

func TestIDomDiamondAndLoop(t *testing.T) {
	f := ir.MustParse(diamond)
	dt := dom.Build(f)
	name := func(id int) string {
		if id < 0 {
			return "-"
		}
		return f.Blocks[id].Name
	}
	want := map[string]string{"t": "entry", "e": "entry", "j": "entry", "loop": "j", "out": "j"}
	for _, b := range f.Blocks {
		if b.Name == "entry" {
			if dt.IDom(b.ID) != -1 {
				t.Fatal("entry has no idom")
			}
			continue
		}
		if got := name(dt.IDom(b.ID)); got != want[b.Name] {
			t.Errorf("idom(%s) = %s, want %s", b.Name, got, want[b.Name])
		}
	}
	// out has two preds (j and loop): idom = j.
	if !dt.Dominates(blockID(f, "entry"), blockID(f, "out")) {
		t.Fatal("entry dominates everything")
	}
	if dt.Dominates(blockID(f, "t"), blockID(f, "j")) {
		t.Fatal("t must not dominate j")
	}
	if !dt.Dominates(blockID(f, "j"), blockID(f, "j")) {
		t.Fatal("dominance is reflexive")
	}
}

func TestFrontier(t *testing.T) {
	f := ir.MustParse(diamond)
	dt := dom.Build(f)
	df := dt.Frontier()
	hasIn := func(b string, target string) bool {
		for _, x := range df[blockID(f, b)] {
			if f.Blocks[x].Name == target {
				return true
			}
		}
		return false
	}
	if !hasIn("t", "j") || !hasIn("e", "j") {
		t.Fatal("j must be in DF of both arms")
	}
	if !hasIn("loop", "loop") {
		t.Fatal("loop header in its own frontier (back edge)")
	}
	if hasIn("entry", "j") {
		t.Fatal("entry dominates j; j not in its frontier")
	}
}

func TestLoopDepth(t *testing.T) {
	f := ir.MustParse(diamond)
	dt := dom.Build(f)
	depth := dt.LoopDepth()
	if depth[blockID(f, "loop")] != 1 {
		t.Fatalf("loop depth = %d", depth[blockID(f, "loop")])
	}
	if depth[blockID(f, "entry")] != 0 || depth[blockID(f, "out")] != 0 {
		t.Fatal("blocks outside loops must have depth 0")
	}
}

func TestUnreachableBlocks(t *testing.T) {
	f := ir.MustParse(diamond)
	dead := f.NewBlock("dead")
	dead.Instrs = []*ir.Instr{{Op: ir.OpRet}}
	dt := dom.Build(f)
	if dt.Reachable(dead.ID) {
		t.Fatal("dead block reported reachable")
	}
	if dt.Dominates(dead.ID, blockID(f, "out")) || dt.Dominates(blockID(f, "entry"), dead.ID) {
		t.Fatal("unreachable blocks dominate nothing and are dominated by nothing")
	}
}

// slowDominates is the definition: a dominates b iff removing a makes b
// unreachable from the entry (or a == b).
func slowDominates(f *ir.Func, a, b int) bool {
	if a == b {
		return true
	}
	seen := make([]bool, len(f.Blocks))
	seen[a] = true // pretend a is removed
	stack := []int{f.Entry().ID}
	if f.Entry().ID == a {
		return true
	}
	seen[f.Entry().ID] = true
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x == b {
			return false
		}
		for _, s := range f.Blocks[x].Succs {
			if !seen[s.ID] {
				seen[s.ID] = true
				stack = append(stack, s.ID)
			}
		}
	}
	return true // b unreachable without a
}

// reachable marks the blocks reachable from the entry.
func reachable(f *ir.Func) []bool {
	seen := make([]bool, len(f.Blocks))
	seen[f.Entry().ID] = true
	stack := []int{f.Entry().ID}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range f.Blocks[x].Succs {
			if !seen[s.ID] {
				seen[s.ID] = true
				stack = append(stack, s.ID)
			}
		}
	}
	return seen
}

// TestDominanceAgainstDefinition checks Build against the brute-force
// definition on every block pair: reachability, Dominates, and each IDom
// exactly — it strictly dominates its block and is dominated by every other
// strict dominator of it. The inputs are the diamond-and-loop graph plus two
// generated suites.
func TestDominanceAgainstDefinition(t *testing.T) {
	funcs := []*ir.Func{ir.MustParse(diamond)}
	funcs = append(funcs, cfggen.Generate(cfggen.DefaultProfile("dom", 11))...)
	for seed := int64(0); seed < 4; seed++ {
		p := cfggen.DefaultProfile("dom", 900+seed)
		p.Funcs = 5
		funcs = append(funcs, cfggen.Generate(p)...)
	}
	for _, f := range funcs {
		dt := dom.Build(f)
		n := len(f.Blocks)
		entry := f.Entry().ID
		// An unreachable block is dominated by everything under the
		// definition; Build reports it unreachable instead.
		reach := reachable(f)
		for b := range reach {
			if dt.Reachable(b) != reach[b] {
				t.Fatalf("%s: Reachable(%s) = %v, want %v", f.Name, f.Blocks[b].Name, dt.Reachable(b), reach[b])
			}
		}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if !reach[a] || !reach[b] {
					continue
				}
				want := slowDominates(f, a, b)
				if got := dt.Dominates(a, b); got != want {
					t.Fatalf("%s: Dominates(%s, %s) = %v, want %v",
						f.Name, f.Blocks[a].Name, f.Blocks[b].Name, got, want)
				}
			}
		}
		for b := 0; b < n; b++ {
			if !reach[b] {
				continue
			}
			id := dt.IDom(b)
			if b == entry {
				if id != -1 {
					t.Fatalf("%s: entry has idom %d", f.Name, id)
				}
				continue
			}
			if id < 0 || id == b || !slowDominates(f, id, b) {
				t.Fatalf("%s: idom(%s) = %d does not strictly dominate it", f.Name, f.Blocks[b].Name, id)
			}
			for a := 0; a < n; a++ {
				if a != b && reach[a] && slowDominates(f, a, b) && !slowDominates(f, a, id) {
					t.Fatalf("%s: idom(%s) = %s is not dominated by strict dominator %s",
						f.Name, f.Blocks[b].Name, f.Blocks[id].Name, f.Blocks[a].Name)
				}
			}
		}
	}
}

// TestRPOIsTopologicalModuloBackEdges: every edge that is not a retreating
// edge goes forward in RPO.
func TestRPOIsTopologicalModuloBackEdges(t *testing.T) {
	funcs := cfggen.Generate(cfggen.DefaultProfile("rpo", 13))
	for _, f := range funcs {
		dt := dom.Build(f)
		pos := make([]int, len(f.Blocks))
		for i := range pos {
			pos[i] = -1
		}
		for i, b := range dt.RPO() {
			pos[b] = i
		}
		for _, b := range f.Blocks {
			if pos[b.ID] < 0 {
				continue
			}
			for _, s := range b.Succs {
				if dt.Dominates(s.ID, b.ID) {
					continue // back edge
				}
				if pos[s.ID] <= pos[b.ID] {
					t.Fatalf("%s: edge %s→%s not forward in RPO", f.Name, b.Name, s.Name)
				}
			}
		}
	}
}

func blockID(f *ir.Func, name string) int {
	for _, b := range f.Blocks {
		if b.Name == name {
			return b.ID
		}
	}
	panic("no block " + name)
}

// TestDominanceTransitivity is a quick property over generated graphs.
func TestDominanceTransitivity(t *testing.T) {
	funcs := cfggen.Generate(cfggen.DefaultProfile("trans", 77))
	f := funcs[0]
	dt := dom.Build(f)
	n := len(f.Blocks)
	check := func(a, b, c uint8) bool {
		x, y, z := int(a)%n, int(b)%n, int(c)%n
		if dt.Dominates(x, y) && dt.Dominates(y, z) && !dt.Dominates(x, z) {
			return false
		}
		// Antisymmetry: mutual dominance implies equality.
		if x != y && dt.Dominates(x, y) && dt.Dominates(y, x) {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}
