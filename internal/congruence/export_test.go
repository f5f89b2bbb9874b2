package congruence

import (
	"repro/internal/interference"
	"repro/internal/ir"
)

// SetCheckHook installs fn to run on the class of v after every merge and
// definition move; nil removes it.
func SetCheckHook(fn func(c *Classes, v ir.VarID)) { checkHook = fn }

// ForestParent exposes v's parent in its class's dominance forest.
func (c *Classes) ForestParent(v ir.VarID) ir.VarID { return c.fpar[v] }

// EqualAncOut exposes v's equal-intersecting ancestor in the other class
// as found by the last value-based check (NoVar when it did not visit v).
func (c *Classes) EqualAncOut(v ir.VarID) ir.VarID { return c.getOut(v) }

// Checker exposes the interference checker the classes query.
func (c *Classes) Checker() *interference.Checker { return c.chk }
