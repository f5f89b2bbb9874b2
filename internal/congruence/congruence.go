// Package congruence maintains congruence classes — sets of variables that
// have been coalesced together — and implements the paper's third main
// contribution (Section IV-B): an interference test between two classes
// that performs only a *linear* number of variable-to-variable intersection
// tests, generalizing the dominance forests of Budimlić et al. without ever
// building the forest, and extended to the value-based interference
// definition via "equal intersecting ancestor" chains.
//
// Each class is kept as a list of variables sorted by the pre-DFS order of
// their definition points in the dominator tree. A simulated stack
// traversal of the implicit dominance forest visits the merged lists in
// order; a variable can only intersect an already-visited one if it
// intersects its nearest dominating ancestor or, with value equality in
// play, one of that ancestor's equal-intersecting-ancestor chain.
//
// Every member also keeps its parent in its class's dominance forest. A
// check starts at the first member of whichever class starts later: before
// it the walk sees one class only and can find no interference, and the
// stack it would hold there is the forest-parent chain of the member just
// before. Merges keep the parents current from the walks that already run.
//
// A full coalescing run performs one merge per accepted affinity, so the
// class storage is allocation-conscious: member lists and register labels
// live in root-indexed slices (no map traffic on the hot path), merges
// reuse the backing arrays of the merged lists whenever one has the
// capacity, and retired arrays — member lists and, through Retire, the
// per-variable storage — go to a pool instead of the garbage collector.
// The per-merge-allocating, full-walk baseline survives behind the
// Reference flag as the differential tests' oracle.
package congruence

import (
	"repro/internal/interference"
	"repro/internal/ir"
)

// Classes is a union-find of variables with per-class ordered member lists.
type Classes struct {
	storage
	chk *interference.Checker

	// pool recycles member-list backing arrays retired by merges and the
	// per-variable storage retired by Retire. It is private by default;
	// NewIn installs a caller-owned pool so successive translations share
	// one set of arrays.
	pool *ListPool

	// Reference disables the scratch reuse: every merge allocates a fresh
	// exact-size member list, as the pre-pooling implementation did, and
	// the linear checks walk both classes from their first members. The
	// differential tests compare against it.
	Reference bool

	epoch uint32
	// checked holds the roots of the last successful InterferesLinear
	// whose visit record Merge may consume; zero once anything else ran.
	checked [2]ir.VarID

	// Tests counts variable-to-variable intersection tests issued by the
	// class-level checks (quadratic vs linear instrumentation).
	Tests int
}

// storage is the per-variable state of a Classes instance plus the
// traversal scratch, recycled through the ListPool by NewIn and Retire.
type storage struct {
	parent []ir.VarID
	size   []int32
	lists  [][]ir.VarID // root → members in pre-DFS def order; nil for singletons
	reg    []string     // root → pinned register label ("" for none)

	// singles is the identity list 0..n-1; Members serves singleton classes
	// as one-element subslices of it instead of allocating per call.
	singles []ir.VarID

	// equalAncIn[v] is the nearest dominating ancestor of v *within v's
	// class* that has the same value and intersects v (paper, Section
	// IV-B); NoVar when none.
	equalAncIn []ir.VarID

	// fpar[v] is v's parent in its class's dominance forest: the stack top
	// when the full walk over the class pushes v (NoVar for a root). The
	// linear checks rebuild their stack from it to skip the one-sided
	// prefix of the merged walk.
	fpar []ir.VarID

	// Visit record of the last walk, consumed by Merge and MergeSimple:
	// the members it visited and each one's merged-forest parent, plus the
	// equal_anc_out scratch of the value-based check.
	visited     []ir.VarID
	visitPar    []ir.VarID
	equalAncOut []ir.VarID
	outEpoch    []uint32

	// stack is the reusable dominance-forest traversal stack of the walks
	// and of recomputeEqualAnc (one live traversal at a time).
	stack []stackEntry
}

// reset sizes the storage to vars, every variable a singleton class.
func (s *storage) reset(vars []*ir.Var) {
	n := len(vars)
	s.parent = resize(s.parent, n)
	s.size = resize(s.size, n)
	s.lists = resize(s.lists, n)
	s.reg = resize(s.reg, n)
	s.singles = resize(s.singles, n)
	s.equalAncIn = resize(s.equalAncIn, n)
	s.fpar = resize(s.fpar, n)
	s.visitPar = resize(s.visitPar, n)
	s.equalAncOut = resize(s.equalAncOut, n)
	s.outEpoch = resize(s.outEpoch, n)
	clear(s.lists)
	clear(s.outEpoch)
	for i, v := range vars {
		s.parent[i] = ir.VarID(i)
		s.size[i] = 1
		s.reg[i] = v.Reg
		s.singles[i] = ir.VarID(i)
		s.equalAncIn[i] = ir.NoVar
		s.fpar[i] = ir.NoVar
		s.equalAncOut[i] = ir.NoVar
	}
}

// resize returns s with length n, reusing its backing array when it fits.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// ListPool recycles class member-list backing arrays and per-variable
// storage. One pool may serve many Classes instances sequentially (NewIn +
// Retire); sharing it across translations is what keeps steady-state
// coalescing free of per-merge and per-variable allocations even though
// every translation starts fresh classes.
type ListPool struct {
	spare [][]ir.VarID
	vars  storage
}

// put retires a backing array for reuse by later merges.
func (p *ListPool) put(a []ir.VarID) {
	if cap(a) == 0 {
		return
	}
	p.spare = append(p.spare, a[:0])
}

// take returns an empty list with capacity at least need, preferring a
// retired backing array over a fresh allocation.
func (p *ListPool) take(need int) []ir.VarID {
	for i := len(p.spare) - 1; i >= 0; i-- {
		if cap(p.spare[i]) >= need {
			s := p.spare[i]
			p.spare = append(p.spare[:i], p.spare[i+1:]...)
			return s[:0]
		}
	}
	return make([]ir.VarID, 0, need+need/2+4)
}

// New returns singleton classes over the variable universe of chk. The
// Reference flag of chk carries over, so a reference checker drives a
// reference merge path too.
func New(chk *interference.Checker) *Classes {
	return NewIn(chk, nil)
}

// NewIn is New with a caller-owned pool feeding the merge and per-variable
// storage; nil selects a private pool. Pair it with Retire to hand the
// grown arrays back when the classes are done.
func NewIn(chk *interference.Checker, pool *ListPool) *Classes {
	if pool == nil {
		pool = &ListPool{}
	}
	c := &Classes{pool: pool, chk: chk, Reference: chk.Reference}
	if !c.Reference {
		c.storage, pool.vars = pool.vars, storage{}
	}
	c.reset(chk.F.Vars)
	return c
}

// grow extends the universe when virtualization materializes variables.
func (c *Classes) grow() {
	for len(c.parent) < len(c.chk.F.Vars) {
		v := ir.VarID(len(c.parent))
		c.parent = append(c.parent, v)
		c.size = append(c.size, 1)
		c.lists = append(c.lists, nil)
		c.reg = append(c.reg, c.chk.F.Vars[v].Reg)
		c.singles = append(c.singles, v)
		c.equalAncIn = append(c.equalAncIn, ir.NoVar)
		c.fpar = append(c.fpar, ir.NoVar)
		c.visitPar = append(c.visitPar, ir.NoVar)
		c.equalAncOut = append(c.equalAncOut, ir.NoVar)
		c.outEpoch = append(c.outEpoch, 0)
	}
}

// Find returns the representative of v's class.
func (c *Classes) Find(v ir.VarID) ir.VarID {
	if int(v) >= len(c.parent) {
		c.grow()
	}
	root := v
	for c.parent[root] != root {
		root = c.parent[root]
	}
	for c.parent[v] != root {
		c.parent[v], v = root, c.parent[v]
	}
	return root
}

// SameClass reports whether a and b are already coalesced.
func (c *Classes) SameClass(a, b ir.VarID) bool { return c.Find(a) == c.Find(b) }

// Members returns the class of v in pre-DFS definition order. The slice
// must not be mutated and is only valid until the next merge involving the
// class.
func (c *Classes) Members(v ir.VarID) []ir.VarID {
	root := c.Find(v)
	if l := c.lists[root]; l != nil {
		return l
	}
	return c.singles[root : root+1 : root+1]
}

// Reg returns the architectural register the class of v is pinned to, or "".
func (c *Classes) Reg(v ir.VarID) string { return c.reg[c.Find(v)] }

// less orders variables by pre-DFS order of definition points, breaking
// ties (φs of one block, components of one parallel copy) by variable ID.
func (c *Classes) less(a, b ir.VarID) bool {
	if d := c.chk.DefOrder(a, b); d != 0 {
		return d < 0
	}
	return a < b
}

// EqualAncIn exposes the per-variable equal-intersecting-ancestor within
// its class (testing hook).
func (c *Classes) EqualAncIn(v ir.VarID) ir.VarID { return c.equalAncIn[v] }

// Retire hands every live member list and the per-variable storage back to
// the classes' pool. The Classes must not be used afterwards; the
// translator calls it once the rewrite phase no longer needs class
// membership, so the next translation reuses the arrays.
func (c *Classes) Retire() {
	if c.Reference {
		return // reference merges allocate exact-size lists by design
	}
	for i, l := range c.lists {
		if l != nil {
			c.pool.put(l)
			c.lists[i] = nil
		}
	}
	c.pool.vars, c.storage = c.storage, storage{}
}
