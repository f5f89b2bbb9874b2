package congruence

import (
	"slices"

	"repro/internal/ir"
)

// Pred is a variable-to-variable interference predicate used by the
// quadratic class test; x and y always belong to different classes.
type Pred func(x, y ir.VarID) bool

// stackEntry is one frame of the simulated dominance-forest traversal: a
// variable and which of the two classes ("red" or "blue") it came from.
type stackEntry struct {
	v   ir.VarID
	red bool
}

// takeStack hands out the reusable traversal stack (empty). Under Reference
// it returns nil so every traversal allocates afresh, as the pre-pooling
// implementation did.
func (c *Classes) takeStack() []stackEntry {
	if c.Reference {
		return nil
	}
	s := c.stack
	c.stack = nil
	return s[:0]
}

// putStack returns the (possibly grown) traversal stack to the pool.
func (c *Classes) putStack(s []stackEntry) {
	if !c.Reference {
		c.stack = s
	}
}

// InterferesQuadratic tests interference between the classes of a and b by
// testing every cross pair, the baseline the paper's "Linear" option
// replaces. exemptA/exemptB, when valid, skip the single pair
// (exemptA, exemptB) — Sreedhar's SSA-based coalescing rule, which omits
// the copy-related pair itself.
func (c *Classes) InterferesQuadratic(a, b ir.VarID, pred Pred, exemptA, exemptB ir.VarID) bool {
	if c.SameClass(a, b) {
		return false
	}
	for _, x := range c.Members(a) {
		for _, y := range c.Members(b) {
			if x == exemptA && y == exemptB || x == exemptB && y == exemptA {
				continue
			}
			c.Tests++
			if pred(x, y) {
				return true
			}
		}
	}
	return false
}

// InterferesLinear tests interference between the classes of a and b with
// the paper's merged dominance-forest traversal: a linear number of
// intersection tests in the total size of the two classes. When the checker
// carries value information the value-based definition is used, with
// equal-intersecting-ancestor chains; otherwise it degrades to the pure
// intersection test of Algorithm 2.
//
// A successful (non-interfering) call leaves the visit record and the
// equal_anc_out scratch valid; Merge must be the next class operation to
// consume them, as in the paper's coalescing loop.
func (c *Classes) InterferesLinear(a, b ir.VarID) bool {
	ra, rb := c.Find(a), c.Find(b)
	if ra == rb {
		return false
	}
	c.epoch++
	if c.walk(c.Members(ra), c.Members(rb), walkValue) {
		return true
	}
	c.checked = [2]ir.VarID{ra, rb}
	return false
}

// InterferesLinearPure is Algorithm 2's two-set form with the *pure
// intersection* definition (no value information): since both classes are
// intersection-free and all cross pairs visited so far tested clean, a new
// intersection can only appear between the current variable and its
// dominance-forest parent when the two belong to different classes.
func (c *Classes) InterferesLinearPure(a, b ir.VarID) bool {
	ra, rb := c.Find(a), c.Find(b)
	if ra == rb {
		return false
	}
	return c.walk(c.Members(ra), c.Members(rb), walkPure)
}

// walkMode selects what the merged dominance-forest walk tests at each
// member it visits.
type walkMode uint8

const (
	walkValue   walkMode = iota // value-based test with equal-ancestor chains
	walkPure                    // pure intersection test against the parent
	walkParents                 // no test: MergeSimple's parent recompute
)

// walk traverses the merged dominance forest of the member lists red and
// blue and reports whether the mode's test found an interference. It
// visits members until one list is exhausted and none of its members is
// left on the stack: past that point the forest holds one class only. The
// visited members and their merged-forest parents are recorded for the
// merges.
func (c *Classes) walk(red, blue []ir.VarID, mode walkMode) bool {
	c.checked = [2]ir.VarID{}
	c.visited = c.visited[:0]
	dom := c.takeStack()
	defer func() { c.putStack(dom) }()
	ri, bi, nr, nb := 0, 0, 0, 0 // list positions; stack entries from red / blue
	if !c.Reference {
		ri, bi, dom, nr, nb = c.resume(red, blue, dom)
	}

	for (ri < len(red) && nb > 0) || (bi < len(blue) && nr > 0) ||
		(ri < len(red) && bi < len(blue)) {
		var cur ir.VarID
		var curRed bool
		if bi == len(blue) || (ri < len(red) && c.less(red[ri], blue[bi])) {
			cur, curRed = red[ri], true
			ri++
		} else {
			cur, curRed = blue[bi], false
			bi++
		}
		// Pop entries that do not dominate cur: by pre-DFS order they can
		// never dominate a later variable either.
		for len(dom) > 0 && !c.chk.DefDominates(dom[len(dom)-1].v, cur) {
			if dom[len(dom)-1].red {
				nr--
			} else {
				nb--
			}
			dom = dom[:len(dom)-1]
		}
		var parent ir.VarID = ir.NoVar
		parentRed := false
		if len(dom) > 0 {
			parent, parentRed = dom[len(dom)-1].v, dom[len(dom)-1].red
		}
		switch mode {
		case walkValue:
			if c.interference(cur, curRed, parent, parentRed) {
				return true
			}
		case walkPure:
			if parent != ir.NoVar && parentRed != curRed {
				c.Tests++
				if c.chk.Intersect(parent, cur) {
					return true
				}
			}
		}
		c.visited = append(c.visited, cur)
		c.visitPar[cur] = parent
		dom = append(dom, stackEntry{cur, curRed})
		if curRed {
			nr++
		} else {
			nb++
		}
	}
	return false
}

// resume skips the one-sided prefix of the merged walk: the members of the
// class that starts first which precede the other class's first member.
// No test can fire there — the parent of a prefix member is in its own
// class, and getOut is NoVar until a member of the other class was visited
// — so the walk starts at the other class's first member, with the stack
// the full walk would hold there: the forest-parent chain of the member
// just before it, all from the earlier class.
func (c *Classes) resume(red, blue []ir.VarID, dom []stackEntry) (ri, bi int, _ []stackEntry, nr, nb int) {
	if c.less(red[0], blue[0]) {
		ri = c.searchAfter(red, blue[0])
		dom = c.pushChain(dom, red[ri-1], true)
		return ri, 0, dom, len(dom), 0
	}
	bi = c.searchAfter(blue, red[0])
	dom = c.pushChain(dom, blue[bi-1], false)
	return 0, bi, dom, 0, len(dom)
}

// searchAfter returns the index of the first member of the sorted list xs
// that comes after v in pre-DFS definition order.
func (c *Classes) searchAfter(xs []ir.VarID, v ir.VarID) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c.less(v, xs[m]) {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// pushChain pushes v and its forest ancestors onto the empty stack dom,
// outermost first.
func (c *Classes) pushChain(dom []stackEntry, v ir.VarID, red bool) []stackEntry {
	for ; v != ir.NoVar; v = c.fpar[v] {
		dom = append(dom, stackEntry{v, red})
	}
	slices.Reverse(dom)
	return dom
}

// interference is the paper's Function interference: cur's parent in the
// merged dominance forest is parent (possibly NoVar). It reports whether
// cur interferes with any already-visited variable of the other class, and
// updates cur's equal-intersecting-ancestor in the other class.
func (c *Classes) interference(cur ir.VarID, curRed bool, parent ir.VarID, parentRed bool) bool {
	c.setOut(cur, ir.NoVar)
	if parent == ir.NoVar {
		return false
	}
	b := parent
	if parentRed == curRed {
		b = c.getOut(parent) // switch to the parent's chain in the other class
	}
	if b == ir.NoVar {
		return false
	}
	if c.chk.Value(cur) != c.chk.Value(b) {
		return c.chainIntersect(cur, b)
	}
	c.updateEqualAncOut(cur, b)
	return false
}

// chainIntersect reports whether a intersects b or one of b's
// equal-intersecting ancestors within b's own class.
func (c *Classes) chainIntersect(a, b ir.VarID) bool {
	for tmp := b; tmp != ir.NoVar; tmp = c.equalAncIn[tmp] {
		c.Tests++
		if c.chk.Intersect(a, tmp) {
			return true
		}
	}
	return false
}

// updateEqualAncOut walks b's equal-intersecting-ancestor chain (same value
// as a, other class) to the nearest member intersecting a, recording it as
// a's equal-intersecting ancestor in the other class.
func (c *Classes) updateEqualAncOut(a, b ir.VarID) {
	tmp := b
	for tmp != ir.NoVar {
		c.Tests++
		if c.chk.Intersect(a, tmp) {
			break
		}
		tmp = c.equalAncIn[tmp]
	}
	c.setOut(a, tmp)
}

func (c *Classes) setOut(v, anc ir.VarID) {
	c.equalAncOut[v] = anc
	c.outEpoch[v] = c.epoch
}

func (c *Classes) getOut(v ir.VarID) ir.VarID {
	if c.outEpoch[v] != c.epoch {
		return ir.NoVar // not visited during the current check
	}
	return c.equalAncOut[v]
}
