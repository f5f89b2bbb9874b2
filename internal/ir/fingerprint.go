package ir

import "math"

// Fingerprint is a 128-bit canonical structural hash of a function: the
// block/edge structure, φ and body instructions, operand IDs, auxiliary
// constants, block frequencies, and register pins — everything translation
// decisions depend on — and nothing they do not: variable and block names
// never enter the hash, so two functions that differ only in naming
// collide by design. Two independent 64-bit lanes make a silent collision
// between structurally different functions (which would hand a memoized
// translation to the wrong input) negligible.
type Fingerprint struct {
	Hi, Lo uint64
}

// FNV-1a offsets/primes for the first lane; the second lane runs the same
// multiply-xor scheme with independent constants (splitmix64's increment
// and one of its mix multipliers), so the lanes do not cancel together.
const (
	fpOffsetHi = 0x9e3779b97f4a7c15
	fpPrimeHi  = 0xbf58476d1ce4e5b9
	fpOffsetLo = 14695981039346656037
	fpPrimeLo  = 1099511628211
)

// fpLanes accumulates the two hash lanes.
type fpLanes struct{ hi, lo uint64 }

func newFPLanes() fpLanes { return fpLanes{hi: fpOffsetHi, lo: fpOffsetLo} }

func (h *fpLanes) word(x uint64) {
	h.hi = (h.hi ^ x) * fpPrimeHi
	h.lo = (h.lo ^ x) * fpPrimeLo
}

func (h *fpLanes) str(s string) {
	h.word(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.word(uint64(s[i]))
	}
}

// Fingerprint returns the function's structural hash, cached against the
// generation counters: any MarkCodeMutated or MarkCFGMutated since the last
// call recomputes it from scratch. The hash is a header (parameter count,
// universe and block sizes, register pins) plus a wrapping sum of one
// summand per block; memo keys and persisted snapshots depend on this exact
// formula, so changing it orphans every stored entry.
func (f *Func) Fingerprint() Fingerprint {
	if f.fpValid && f.fpCFG == f.cfgGen && f.fpCode == f.codeGen {
		return f.fp
	}
	h := newFPLanes()
	h.word(uint64(f.NumParams))
	h.word(uint64(len(f.Vars)))
	h.word(uint64(len(f.Blocks)))
	for _, v := range f.Vars {
		// Reg pins feed precoalescing; Name and base are display-only.
		if v.Reg == "" {
			h.word(0)
		} else {
			h.str(v.Reg)
		}
	}
	for _, b := range f.Blocks {
		bl := blockLanes(b)
		h.hi += bl[0]
		h.lo += bl[1]
	}
	f.fp = Fingerprint{Hi: h.hi, Lo: h.lo}
	f.fpCFG, f.fpCode = f.cfgGen, f.codeGen
	f.fpValid = true
	return f.fp
}

// blockLanes hashes one block's structure into a per-lane summand. The
// block's own position seeds the lanes, so the wrapping sum over blocks
// stays position-sensitive.
func blockLanes(b *Block) [2]uint64 {
	h := newFPLanes()
	h.word(uint64(b.ID))
	h.word(math.Float64bits(b.Freq))
	h.word(uint64(len(b.Preds)))
	for _, p := range b.Preds {
		h.word(uint64(p.ID))
	}
	h.word(uint64(len(b.Succs)))
	for _, s := range b.Succs {
		h.word(uint64(s.ID))
	}
	h.word(uint64(len(b.Phis)))
	for _, in := range b.Phis {
		instrLanes(&h, in)
	}
	h.word(uint64(len(b.Instrs)))
	for _, in := range b.Instrs {
		instrLanes(&h, in)
	}
	return [2]uint64{h.hi, h.lo}
}

func instrLanes(h *fpLanes, in *Instr) {
	h.word(uint64(in.Op))
	h.word(uint64(in.Aux))
	h.word(uint64(len(in.Defs)))
	for _, d := range in.Defs {
		h.word(uint64(uint32(d)))
	}
	h.word(uint64(len(in.Uses)))
	for _, u := range in.Uses {
		h.word(uint64(uint32(u)))
	}
}
