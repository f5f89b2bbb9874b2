// Package interference implements the paper's notions of live-range
// intersection and interference (Section III-A):
//
//   - Intersect: the live ranges of a and b share a program point. In SSA
//     this reduces to "the variable whose definition dominates the other's
//     is live just after that other definition" (Budimlić et al.).
//   - Chaitin: a is live at the definition of b and that definition is not
//     a copy between a and b (or symmetrically).
//   - Value-based (the paper's contribution): a and b interfere iff their
//     live ranges intersect *and* V(a) ≠ V(b), where V is the SSA value of
//     package ssa. With this definition the interference relation never has
//     to be updated or rebuilt after coalescing.
//
// Liveness is consumed through the BlockLiveness interface so that the same
// tests run from dataflow liveness sets (package liveness) or from the fast
// liveness checker (package livecheck) — the paper's "LiveCheck" option.
//
// The dominance-based test only pays off when each individual query is
// near-constant (Budimlić et al.), so the hot primitives avoid per-query
// re-derivation: LiveAfter binary-searches the (block, slot)-sorted use
// lists of ir.DefUse instead of scanning them, and DefOrder/DefDominates
// compare packed per-variable def-point keys (preorder<<32|slot, cached in
// the Checker) instead of chasing DefBlock→PreOrder indirections on every
// call. The pre-optimization implementations survive as the *Reference
// methods — the differential oracle of the tests — and the Reference flag reroutes the whole checker
// to them.
package interference

import (
	"repro/internal/dom"
	"repro/internal/ir"
)

// BlockLiveness answers block-boundary liveness queries. Both
// liveness.Info and livecheck.Checker satisfy it.
type BlockLiveness interface {
	// LiveInBlock reports whether v is live at entry of block b (φ results
	// of b excluded).
	LiveInBlock(v ir.VarID, b int) bool
	// LiveOutBlock reports whether v is live at exit of block b, φ uses of
	// successors included.
	LiveOutBlock(v ir.VarID, b int) bool
}

// Checker bundles the structures needed for interference queries.
type Checker struct {
	F    *ir.Func
	DT   *dom.Tree
	DU   *ir.DefUse
	Live BlockLiveness
	// Vals is the SSA value of every variable (ssa.Values). It may be nil,
	// in which case value-based queries degrade to pure intersection.
	Vals []ir.VarID

	// Reference answers every query with the pre-optimization
	// implementations (linear use-list scans, per-query def-point
	// derivation). Semantics are identical; only cost differs. It is the
	// differential tests' oracle.
	Reference bool

	// Queries counts the live-range intersection tests performed, for the
	// instrumentation behind the paper's Figure 6 discussion.
	Queries int

	// Cached def-point keys, built lazily on first order/dominance query
	// and extended as the variable universe grows. defKey packs
	// (preorder+1)<<32 | slot so one uint64 comparison decides DefOrder;
	// defPre/defPost answer block-level dominance without going through
	// DefBlock. The virtualized translator invalidates moved definitions
	// with DefMoved.
	defKey  []uint64
	defPre  []int32
	defPost []int32
}

// Value returns V(v), or v itself when no value information is installed.
func (c *Checker) Value(v ir.VarID) ir.VarID {
	if c.Vals == nil {
		return v
	}
	return c.Vals[v]
}

// ensureKeys extends the cached def-point keys to the current variable
// universe, computing keys for any variables added since the last call.
func (c *Checker) ensureKeys() {
	for len(c.defKey) < len(c.F.Vars) {
		c.defKey = append(c.defKey, 0)
		c.defPre = append(c.defPre, -1)
		c.defPost = append(c.defPost, -1)
		c.refreshKey(ir.VarID(len(c.defKey) - 1))
	}
}

// refreshKey recomputes the cached def-point key of v from DU and DT.
func (c *Checker) refreshKey(v ir.VarID) {
	if !c.DU.HasDef(v) {
		c.defKey[v] = 0
		c.defPre[v] = -1
		c.defPost[v] = -1
		return
	}
	db := c.DU.DefBlock(v)
	pre, post := c.DT.PreOrder(db), c.DT.PostOrder(db)
	c.defPre[v] = pre
	c.defPost[v] = post
	c.defKey[v] = uint64(uint32(pre+1))<<32 | uint64(uint32(c.DU.DefSlot(v)))
}

// DefMoved tells the checker that the definition point of v changed (or was
// just created) — the virtualized translator calls it, through
// congruence.Classes.DefMoved, after ReplaceDef / AddDef so the packed keys
// stay in sync with the def-use index.
func (c *Checker) DefMoved(v ir.VarID) {
	if c.Reference {
		return // the reference path derives per query; no cache to maintain
	}
	c.ensureKeys()
	c.refreshKey(v)
}

// LiveAfter reports whether v is live immediately after the instruction at
// the given slot of block b — after the instruction's reads and writes.
// Uses of v at that very slot do not keep it alive past the slot.
func (c *Checker) LiveAfter(v ir.VarID, b int, slot int32) bool {
	if c.Reference {
		return c.LiveAfterReference(v, b, slot)
	}
	if !c.DU.HasDef(v) {
		return false
	}
	db, ds := c.DU.DefBlock(v), c.DU.DefSlot(v)
	if db == b {
		if ds > slot {
			return false // defined later in the block
		}
	} else if !c.DT.Dominates(db, b) {
		return false // definition does not reach the block
	}
	if c.DU.UsedInBlockAfter(v, b, slot) {
		return true
	}
	return c.Live.LiveOutBlock(v, b)
}

// LiveAfterReference is LiveAfter with the pre-optimization linear scan of
// the whole use list (order-independent, hence insensitive to the sorted
// storage) — the differential baseline.
func (c *Checker) LiveAfterReference(v ir.VarID, b int, slot int32) bool {
	if !c.DU.HasDef(v) {
		return false
	}
	db, ds := c.DU.DefBlock(v), c.DU.DefSlot(v)
	if db == b {
		if ds > slot {
			return false
		}
	} else if !c.DT.Dominates(db, b) {
		return false
	}
	for _, u := range c.DU.Uses(v) {
		if int(u.Block) == b && u.Slot > slot {
			return true
		}
	}
	return c.Live.LiveOutBlock(v, b)
}

// DefOrder compares the definition points of a and b in the pre-DFS order
// of the dominator tree: negative when def(a) precedes def(b), 0 when the
// points coincide (components of one parallel copy or φs of one block).
// Variables without a definition sort last.
func (c *Checker) DefOrder(a, b ir.VarID) int {
	if c.Reference {
		return c.DefOrderReference(a, b)
	}
	ha, hb := c.DU.HasDef(a), c.DU.HasDef(b)
	switch {
	case !ha && !hb:
		return int(a) - int(b)
	case !ha:
		return 1
	case !hb:
		return -1
	}
	c.ensureKeys()
	switch ka, kb := c.defKey[a], c.defKey[b]; {
	case ka < kb:
		return -1
	case ka > kb:
		return 1
	}
	return 0
}

// DefOrderReference derives both definition points per query, as the
// pre-optimization implementation did.
func (c *Checker) DefOrderReference(a, b ir.VarID) int {
	ha, hb := c.DU.HasDef(a), c.DU.HasDef(b)
	switch {
	case !ha && !hb:
		return int(a) - int(b)
	case !ha:
		return 1
	case !hb:
		return -1
	}
	pa, pb := c.DT.PreOrder(c.DU.DefBlock(a)), c.DT.PreOrder(c.DU.DefBlock(b))
	if pa != pb {
		return int(pa - pb)
	}
	if sa, sb := c.DU.DefSlot(a), c.DU.DefSlot(b); sa != sb {
		return int(sa - sb)
	}
	return 0
}

// DefDominates reports whether the definition point of a dominates the
// definition point of b (reflexively at equal points).
func (c *Checker) DefDominates(a, b ir.VarID) bool {
	if c.Reference {
		return c.DefDominatesReference(a, b)
	}
	if !c.DU.HasDef(a) || !c.DU.HasDef(b) {
		return false
	}
	c.ensureKeys()
	ka, kb := c.defKey[a], c.defKey[b]
	if ka>>32 == kb>>32 {
		// Same preorder number means same block — except for the shared
		// "unreachable" sentinel, where block identity must be rechecked.
		if c.defPre[a] < 0 && c.DU.DefBlock(a) != c.DU.DefBlock(b) {
			return false
		}
		return ka <= kb // slot comparison: the preorder halves are equal
	}
	pa, pb := c.defPre[a], c.defPre[b]
	return pa >= 0 && pb >= 0 && pa < pb && c.defPost[b] <= c.defPost[a]
}

// DefDominatesReference is the per-query derivation baseline.
func (c *Checker) DefDominatesReference(a, b ir.VarID) bool {
	if !c.DU.HasDef(a) || !c.DU.HasDef(b) {
		return false
	}
	da, db := c.DU.DefBlock(a), c.DU.DefBlock(b)
	if da == db {
		return c.DU.DefSlot(a) <= c.DU.DefSlot(b)
	}
	return c.DT.Dominates(da, db)
}

// Intersect reports whether the live ranges of a and b share a point.
// By the SSA dominance property this holds iff the variable whose
// definition dominates the other's is live just after that definition.
func (c *Checker) Intersect(a, b ir.VarID) bool {
	if a == b {
		return true
	}
	c.Queries++
	if !c.DU.HasDef(a) || !c.DU.HasDef(b) {
		return false
	}
	switch {
	case c.DefDominates(b, a) && !c.DefDominates(a, b):
		a, b = b, a // make a the dominating one
	case c.DefDominates(a, b):
		// already ordered; equal points also land here
	default:
		return false // neither definition dominates the other
	}
	return c.LiveAfter(a, c.DU.DefBlock(b), c.DU.DefSlot(b)) &&
		c.LiveAfter(b, c.DU.DefBlock(b), c.DU.DefSlot(b))
}

// Interferes implements the paper's value-based interference: intersecting
// live ranges with different values.
func (c *Checker) Interferes(a, b ir.VarID) bool {
	if a == b {
		return false
	}
	if c.Vals != nil && c.Vals[a] == c.Vals[b] {
		return false
	}
	return c.Intersect(a, b)
}

// ChaitinInterferes implements Chaitin's conservative test: one variable is
// live at the definition point of the other and that definition is not a
// copy between the two.
func (c *Checker) ChaitinInterferes(a, b ir.VarID) bool {
	if a == b || !c.DU.HasDef(a) || !c.DU.HasDef(b) {
		return false
	}
	// This is an intersection test at b's (or a's) definition point, just
	// like Intersect — it must count toward Stats.IntersectionTests, or the
	// Chaitin strategy reports zero Figure 6 queries.
	c.Queries++
	if c.DefDominates(b, a) && !c.DefDominates(a, b) {
		a, b = b, a
	} else if !c.DefDominates(a, b) {
		return false
	}
	// a's definition dominates b's: they can only meet at b's definition.
	db, ds := c.DU.DefBlock(b), c.DU.DefSlot(b)
	if !c.LiveAfter(a, db, ds) || !c.LiveAfter(b, db, ds) {
		return false
	}
	if in := c.DU.DefInstr(b); in != nil && (in.IsCopyOf(b, a) || in.IsCopyOf(a, b)) {
		return false
	}
	return true
}
