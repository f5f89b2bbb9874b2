// Package dom computes dominator trees, dominance frontiers, and loop
// nesting depths over the ir CFG. The dominator tree is built with the
// iterative algorithm of Cooper, Harvey and Kennedy; dominance queries are
// answered in O(1) with pre/post DFS numbering of the tree, which is the
// primitive both the linear congruence-class interference test (paper,
// Section IV-B) and the fast liveness check (Section IV-A) rely on.
package dom

import (
	"repro/internal/ir"
)

// Tree is the dominator tree of a function plus derived orderings.
type Tree struct {
	f        *ir.Func
	idom     []int   // immediate dominator (block ID); entry maps to itself
	children [][]int // dominator-tree children
	pre      []int32 // dominator-tree preorder number
	post     []int32 // dominator-tree postorder number
	rpo      []int   // reverse postorder of the CFG (reachable blocks only)
	rpoPos   []int32 // position of each block in rpo; -1 if unreachable

	frontier  [][]int // lazily computed dominance frontier
	loopDepth []int   // lazily computed loop nesting depth
}

// Build computes the dominator tree of f. Unreachable blocks have no
// dominator and are reported by Reachable.
func Build(f *ir.Func) *Tree {
	n := len(f.Blocks)
	t := &Tree{
		f:      f,
		idom:   make([]int, n),
		rpoPos: make([]int32, n),
	}
	for i := range t.idom {
		t.idom[i] = -1
		t.rpoPos[i] = -1
	}

	post := postorder(f)
	t.rpo = make([]int, len(post))
	for i, b := range post {
		pos := len(post) - 1 - i
		t.rpo[pos] = b
		t.rpoPos[b] = int32(pos)
	}

	// Cooper-Harvey-Kennedy iteration.
	entry := f.Entry().ID
	t.idom[entry] = entry
	for changed := true; changed; {
		changed = false
		for _, b := range t.rpo {
			if b == entry {
				continue
			}
			newIdom := -1
			for _, p := range f.Blocks[b].Preds {
				if t.idom[p.ID] < 0 {
					continue // unreachable or not yet processed
				}
				if newIdom < 0 {
					newIdom = p.ID
				} else {
					newIdom = t.intersect(p.ID, newIdom)
				}
			}
			if newIdom >= 0 && t.idom[b] != newIdom {
				t.idom[b] = newIdom
				changed = true
			}
		}
	}

	// Children lists and DFS numbering of the dominator tree. The lists are
	// carved out of one flat array (CSR layout): counting pass, region
	// carve, fill pass — a constant number of allocations instead of one
	// append chain per interior node.
	t.children = make([][]int, n)
	counts := make([]int32, n)
	total := 0
	for _, b := range t.rpo {
		if b == entry {
			continue
		}
		counts[t.idom[b]]++
		total++
	}
	flat := make([]int, total)
	off := 0
	for p, c := range counts {
		if c == 0 {
			continue
		}
		t.children[p] = flat[off : off : off+int(c)]
		off += int(c)
	}
	for _, b := range t.rpo {
		if b == entry {
			continue
		}
		p := t.idom[b]
		t.children[p] = append(t.children[p], b)
	}
	t.number()
	return t
}

// intersect walks two blocks up the (partially built) dominator tree to
// their common ancestor, comparing positions in reverse postorder.
func (t *Tree) intersect(a, b int) int {
	for a != b {
		for t.rpoPos[a] > t.rpoPos[b] {
			a = t.idom[a]
		}
		for t.rpoPos[b] > t.rpoPos[a] {
			b = t.idom[b]
		}
	}
	return a
}

// postorder returns the reachable blocks of f in DFS postorder from the
// entry, iteratively to tolerate deep CFGs.
func postorder(f *ir.Func) []int {
	n := len(f.Blocks)
	post := make([]int, 0, n)
	seen := make([]bool, n)
	type frame struct {
		b    *ir.Block
		next int
	}
	stack := []frame{{b: f.Entry()}}
	seen[f.Entry().ID] = true
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		if fr.next < len(fr.b.Succs) {
			s := fr.b.Succs[fr.next]
			fr.next++
			if !seen[s.ID] {
				seen[s.ID] = true
				stack = append(stack, frame{b: s})
			}
			continue
		}
		post = append(post, fr.b.ID)
		stack = stack[:len(stack)-1]
	}
	return post
}

// number assigns pre/post DFS numbers over the dominator tree.
func (t *Tree) number() {
	n := len(t.f.Blocks)
	t.pre = make([]int32, n)
	t.post = make([]int32, n)
	for i := range t.pre {
		t.pre[i] = -1
		t.post[i] = -1
	}
	entry := t.f.Entry().ID
	var clock int32
	type nframe struct {
		b, next int
	}
	nstack := []nframe{{b: entry}}
	t.pre[entry] = clock
	clock++
	for len(nstack) > 0 {
		fr := &nstack[len(nstack)-1]
		if fr.next < len(t.children[fr.b]) {
			c := t.children[fr.b][fr.next]
			fr.next++
			t.pre[c] = clock
			clock++
			nstack = append(nstack, nframe{b: c})
			continue
		}
		t.post[fr.b] = clock
		clock++
		nstack = nstack[:len(nstack)-1]
	}
}

// Func returns the function the tree was built for.
func (t *Tree) Func() *ir.Func { return t.f }

// Reachable reports whether block b is reachable from the entry.
func (t *Tree) Reachable(b int) bool { return t.rpoPos[b] >= 0 }

// IDom returns the immediate dominator of b, or -1 for the entry block and
// unreachable blocks.
func (t *Tree) IDom(b int) int {
	if b == t.f.Entry().ID || t.idom[b] < 0 {
		return -1
	}
	return t.idom[b]
}

// Children returns the dominator-tree children of b.
func (t *Tree) Children(b int) []int { return t.children[b] }

// Dominates reports whether block a dominates block b (reflexively), in
// O(1) using the DFS numbering.
func (t *Tree) Dominates(a, b int) bool {
	if t.pre[a] < 0 || t.pre[b] < 0 {
		return false
	}
	return t.pre[a] <= t.pre[b] && t.post[b] <= t.post[a]
}

// StrictlyDominates reports whether a dominates b and a != b.
func (t *Tree) StrictlyDominates(a, b int) bool { return a != b && t.Dominates(a, b) }

// PreOrder returns the dominator-tree preorder number of b (-1 if
// unreachable). Listing variables by the preorder of their definition block
// yields the "pre-DFS order" the paper's Algorithm 2 requires.
func (t *Tree) PreOrder(b int) int32 { return t.pre[b] }

// PostOrder returns the dominator-tree postorder number of b (-1 if
// unreachable). Together with PreOrder it answers dominance in O(1):
// a dominates b iff pre(a) <= pre(b) and post(b) <= post(a) — the pair the
// interference checker caches per definition point.
func (t *Tree) PostOrder(b int) int32 { return t.post[b] }

// RPO returns the blocks in reverse postorder of the CFG.
func (t *Tree) RPO() []int { return t.rpo }

// Frontier returns the dominance frontier of every block, computed once on
// first use with the Cooper-Harvey-Kennedy per-join walk.
func (t *Tree) Frontier() [][]int {
	if t.frontier != nil {
		return t.frontier
	}
	n := len(t.f.Blocks)
	df := make([][]int, n)
	inDF := make([]int32, n)
	for i := range inDF {
		inDF[i] = -1
	}
	for _, bID := range t.rpo {
		b := t.f.Blocks[bID]
		if len(b.Preds) < 2 {
			continue
		}
		for _, p := range b.Preds {
			if !t.Reachable(p.ID) {
				continue
			}
			runner := p.ID
			for runner != t.idom[bID] {
				if inDF[runner] != int32(bID) {
					inDF[runner] = int32(bID)
					df[runner] = append(df[runner], bID)
				}
				runner = t.idom[runner]
			}
		}
	}
	t.frontier = df
	return df
}

// LoopDepth returns the loop nesting depth of every block, derived from the
// natural loops of back edges (u→v with v dominating u). Blocks outside any
// loop have depth 0. The workload generator and coalescer use 10^depth as
// the default frequency/affinity weight.
func (t *Tree) LoopDepth() []int {
	if t.loopDepth != nil {
		return t.loopDepth
	}
	n := len(t.f.Blocks)
	depth := make([]int, n)
	for _, uID := range t.rpo {
		u := t.f.Blocks[uID]
		for _, v := range u.Succs {
			if !t.Dominates(v.ID, uID) {
				continue
			}
			// Natural loop of back edge u→v: v plus all blocks that reach u
			// without passing through v. The header's own predecessors are
			// never expanded (it is marked in-loop up front).
			inLoop := make([]bool, n)
			inLoop[v.ID] = true
			var work []int
			if !inLoop[uID] {
				inLoop[uID] = true
				work = append(work, uID)
			}
			for len(work) > 0 {
				x := work[len(work)-1]
				work = work[:len(work)-1]
				for _, p := range t.f.Blocks[x].Preds {
					if t.Reachable(p.ID) && !inLoop[p.ID] {
						inLoop[p.ID] = true
						work = append(work, p.ID)
					}
				}
			}
			for b := 0; b < n; b++ {
				if inLoop[b] {
					depth[b]++
				}
			}
		}
	}
	t.loopDepth = depth
	return depth
}
