package congruence

import (
	"slices"

	"repro/internal/ir"
)

// Merge coalesces the classes of a and b. It must be called right after an
// InterferesLinear(a, b) call that returned false: the equal-intersecting-
// ancestor information computed during that check is folded into the merged
// class (paper: "the equal intersecting ancestor for the combined set is
// updated to the maximum, following the pre-DFS order, of equal_anc_in and
// equal_anc_out"), and so are the merged-forest parents the check found.
// Only visited members change: equal_anc_out is NoVar for the others, and
// their parents are those of their own class — the skipped prefix precedes
// the other class, and once the walk ends none of the other class's members
// is ahead or on the stack.
func (c *Classes) Merge(a, b ir.VarID) ir.VarID {
	ra, rb := c.Find(a), c.Find(b)
	if ra == rb {
		return ra
	}
	if c.checked != [2]ir.VarID{ra, rb} && c.checked != [2]ir.VarID{rb, ra} {
		panic("congruence: Merge must follow a successful InterferesLinear of the same classes")
	}
	for _, v := range c.visited {
		c.fpar[v] = c.visitPar[v]
		c.equalAncIn[v] = c.maxPre(c.equalAncIn[v], c.getOut(v))
	}
	return c.link(ra, rb, c.mergeRoots(ra, rb))
}

// MergeForced coalesces two classes unconditionally — used for the φ-node
// classes of Method I (whose members are coalesced by construction) and for
// pre-coalescing variables pinned to the same register. The equal-
// intersecting-ancestor chains and forest parents of the merged class are
// recomputed with one stack traversal.
func (c *Classes) MergeForced(a, b ir.VarID) ir.VarID {
	ra, rb := c.Find(a), c.Find(b)
	if ra == rb {
		return ra
	}
	merged := c.mergeRoots(ra, rb)
	c.recomputeEqualAnc(merged)
	return c.link(ra, rb, merged)
}

// MergeSimple coalesces two classes without maintaining the equal-
// intersecting-ancestor chains. It is the merge used by the quadratic
// machinery variants, which never consult the chains, and after the pure
// linear test. It has no visit record to consume, so one parents-only walk
// recomputes the forest parents Merge would take from the check.
func (c *Classes) MergeSimple(a, b ir.VarID) ir.VarID {
	ra, rb := c.Find(a), c.Find(b)
	if ra == rb {
		return ra
	}
	c.walk(c.Members(ra), c.Members(rb), walkParents)
	for _, v := range c.visited {
		c.fpar[v] = c.visitPar[v]
	}
	return c.link(ra, rb, c.mergeRoots(ra, rb))
}

// DefMoved tells the checker and the classes that the definition point of
// v changed or was just created (virtualized materialization). A move that
// keeps v's class in pre-DFS order leaves its forest intact: v's dominance
// relation to every earlier member and to every later one is unchanged. A
// move that breaks the order puts v back in place and recomputes the
// class's parents and equal-intersecting-ancestor chains.
func (c *Classes) DefMoved(v ir.VarID) {
	c.chk.DefMoved(v)
	c.checked = [2]ir.VarID{}
	root := c.Find(v)
	if l := c.lists[root]; l != nil {
		i := slices.Index(l, v)
		if (i > 0 && c.less(v, l[i-1])) || (i < len(l)-1 && c.less(l[i+1], v)) {
			l = slices.Delete(l, i, i+1)
			l = slices.Insert(l, c.searchAfter(l, v), v)
			c.lists[root] = l
			c.recomputeEqualAnc(l)
		}
	}
	if checkHook != nil {
		checkHook(c, root)
	}
}

// link performs the union-find merge of roots ra and rb with the merged
// member list, propagating register labels. Two classes pinned to
// *different* architectural registers must never be merged — the class
// predicates treat such pairs as interfering, so reaching link with
// conflicting pins is a force-merge bug that would silently retarget one
// register's variables to the other; it panics instead.
func (c *Classes) link(ra, rb ir.VarID, merged []ir.VarID) ir.VarID {
	if c.size[ra] < c.size[rb] {
		ra, rb = rb, ra
	}
	if rr := c.reg[rb]; rr != "" {
		if ar := c.reg[ra]; ar != "" && ar != rr {
			panic("congruence: cannot merge classes pinned to different registers " +
				ar + " and " + rr)
		}
		c.reg[ra] = rr
		c.reg[rb] = ""
	}
	c.checked = [2]ir.VarID{}
	c.parent[rb] = ra
	c.size[ra] += c.size[rb]
	c.lists[ra] = merged
	c.lists[rb] = nil
	if checkHook != nil {
		checkHook(c, ra)
	}
	return ra
}

// checkHook, set only by the package's tests, runs on the class of v after
// every merge and definition move.
var checkHook func(c *Classes, v ir.VarID)

// mergeRoots merges the pre-DFS-ordered member lists of roots ra and rb in
// linear time, retiring both roots' list storage. The merge lands in one of
// the existing backing arrays when it fits (a backward merge, so the
// occupant is never overwritten before it is read); otherwise it goes to a
// free-listed or fresh array with append-style headroom, so a class absorbs
// many merges per allocation. Under Reference every merge allocates a fresh
// exact-size list — the pre-pooling behaviour, kept as a test oracle.
func (c *Classes) mergeRoots(ra, rb ir.VarID) []ir.VarID {
	x, y := c.Members(ra), c.Members(rb)
	need := len(x) + len(y)
	if c.Reference {
		return c.mergeForward(make([]ir.VarID, 0, need), x, y)
	}
	ax, ay := c.lists[ra], c.lists[rb]
	c.lists[ra], c.lists[rb] = nil, nil
	if cap(ax) >= need {
		c.releaseList(ay)
		return c.mergeBackward(ax[:need], x, y)
	}
	if cap(ay) >= need {
		c.releaseList(ax)
		return c.mergeBackward(ay[:need], y, x)
	}
	out := c.mergeForward(c.takeList(need), x, y)
	c.releaseList(ax)
	c.releaseList(ay)
	return out
}

// mergeForward merges x and y into out (which must not alias either).
func (c *Classes) mergeForward(out, x, y []ir.VarID) []ir.VarID {
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		if c.less(x[i], y[j]) {
			out = append(out, x[i])
			i++
		} else {
			out = append(out, y[j])
			j++
		}
	}
	out = append(out, x[i:]...)
	return append(out, y[j:]...)
}

// mergeBackward merges x and y into out, where x occupies the front of
// out's backing array. Writing from the back, the write index always stays
// ahead of the unread prefix of x: each member of y, last first, is placed
// after the block of x's remaining members that follow it, found by binary
// search and moved with one copy. Once y is exhausted the remaining prefix
// of x is already in place.
func (c *Classes) mergeBackward(out, x, y []ir.VarID) []ir.VarID {
	i, k := len(x), len(out) // x[:i] unread, out[k:] written
	for j := len(y) - 1; j >= 0; j-- {
		p := c.searchAfter(x[:i], y[j])
		k -= i - p
		copy(out[k:], x[p:i])
		i = p
		k--
		out[k] = y[j]
	}
	return out
}

// takeList returns an empty list with capacity at least need from the pool.
func (c *Classes) takeList(need int) []ir.VarID { return c.pool.take(need) }

// releaseList retires a backing array for reuse by later merges.
func (c *Classes) releaseList(a []ir.VarID) { c.pool.put(a) }

// maxPre returns the nearer of two dominating ancestors: the one whose
// definition point comes later in pre-DFS order. NoVar loses to anything.
func (c *Classes) maxPre(x, y ir.VarID) ir.VarID {
	switch {
	case x == ir.NoVar:
		return y
	case y == ir.NoVar:
		return x
	case c.less(x, y):
		return y
	default:
		return x
	}
}

// recomputeEqualAnc rebuilds equalAncIn and the forest parents for a class
// given as a pre-DFS ordered list, by simulating the dominance-forest
// traversal and scanning the ancestor stack for the nearest same-value
// intersecting member.
func (c *Classes) recomputeEqualAnc(list []ir.VarID) {
	dom := c.takeStack()
	for _, cur := range list {
		for len(dom) > 0 && !c.chk.DefDominates(dom[len(dom)-1].v, cur) {
			dom = dom[:len(dom)-1]
		}
		c.equalAncIn[cur] = ir.NoVar
		c.fpar[cur] = ir.NoVar
		if len(dom) > 0 {
			c.fpar[cur] = dom[len(dom)-1].v
		}
		for i := len(dom) - 1; i >= 0; i-- {
			anc := dom[i].v
			if c.chk.Value(anc) == c.chk.Value(cur) && c.chk.Intersect(anc, cur) {
				c.equalAncIn[cur] = anc
				break
			}
		}
		dom = append(dom, stackEntry{v: cur})
	}
	c.putStack(dom)
}
