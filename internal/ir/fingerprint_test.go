package ir_test

import (
	"math/rand"
	"testing"

	"repro/internal/cfggen"
	"repro/internal/ir"
)

const fpDiamondSrc = `
func diamond {
entry:
  x = param 0
  zero = const 0
  c = cmplt x zero
  br c then else
then:
  one = const 1
  a = add x one
  jump join
else:
  two = const 2
  b = add x two
  jump join
join:
  y = phi then:a else:b
  print y
  ret y
}
`

// TestFingerprintNameInsensitive: renaming every variable and block must
// not move the fingerprint — names never feed translation decisions, and
// the memo's whole point is that a renamed near-duplicate still hits.
func TestFingerprintNameInsensitive(t *testing.T) {
	f := ir.MustParse(fpDiamondSrc)
	fp := f.Fingerprint()

	g := ir.MustParse(fpDiamondSrc)
	for id := range g.Vars {
		g.Vars[id].Name = g.VarName(ir.VarID(id)) + "_renamed"
	}
	for _, b := range g.Blocks {
		b.Name += "_r"
	}
	if g.Fingerprint() != fp {
		t.Fatalf("rename moved the fingerprint: %v vs %v", g.Fingerprint(), fp)
	}
	g.Name = "other"
	if g.Fingerprint() != fp {
		t.Fatal("function name moved the fingerprint")
	}
}

// TestFingerprintStructuralSensitivity: every structural dimension the
// translation observes must move the fingerprint.
func TestFingerprintStructuralSensitivity(t *testing.T) {
	base := ir.MustParse(fpDiamondSrc).Fingerprint()

	edit := func(name string, mutate func(f *ir.Func)) {
		f := ir.MustParse(fpDiamondSrc)
		mutate(f)
		if f.Fingerprint() == base {
			t.Errorf("%s: fingerprint did not move", name)
		}
	}
	edit("extra instruction", func(f *ir.Func) {
		v := f.NewVar("extra")
		e := f.Entry()
		e.Instrs = append(e.Instrs[:len(e.Instrs)-1],
			&ir.Instr{Op: ir.OpConst, Defs: []ir.VarID{v}, Aux: 9},
			e.Instrs[len(e.Instrs)-1])
		f.MarkCodeMutated()
	})
	edit("changed aux", func(f *ir.Func) {
		f.Blocks[1].Instrs[0].Aux = 42
		f.MarkCodeMutated()
	})
	edit("changed operand", func(f *ir.Func) {
		in := f.Blocks[1].Instrs[1] // a = add x one
		in.Uses[0] = in.Uses[1]
		f.MarkCodeMutated()
	})
	edit("swapped successors", func(f *ir.Func) {
		e := f.Entry()
		e.Succs[0], e.Succs[1] = e.Succs[1], e.Succs[0]
		f.MarkCFGMutated()
	})
	edit("register pin", func(f *ir.Func) {
		f.Vars[0].Reg = "R0"
		f.MarkCodeMutated()
	})
	edit("block frequency", func(f *ir.Func) {
		f.Blocks[1].Freq = 100
		f.MarkCodeMutated()
	})
}

// TestFingerprintIncrementalMatchesFull: after each of a sequence of
// random edits marked with MarkCodeMutated, the function's cached
// fingerprint must equal the fingerprint of a fresh clone — a cache that
// missed an edit would hand a memoized translation to the wrong input.
func TestFingerprintIncrementalMatchesFull(t *testing.T) {
	f := ir.MustParse(fpDiamondSrc)
	rng := rand.New(rand.NewSource(41))
	for step := 0; step < 40; step++ {
		_ = f.Fingerprint() // fill the cache before the edit
		b := f.Blocks[rng.Intn(len(f.Blocks))]
		n := len(b.Instrs)
		switch rng.Intn(2) {
		case 0:
			b.Instrs = append(b.Instrs[:n-1],
				&ir.Instr{Op: ir.OpConst, Defs: []ir.VarID{0}, Aux: int64(step)},
				b.Instrs[n-1])
		case 1:
			b.Instrs[0].Aux = int64(rng.Intn(1000))
		}
		f.MarkCodeMutated()

		got := f.Fingerprint()
		want := ir.Clone(f).Fingerprint()
		if got != want {
			t.Fatalf("step %d: cached fingerprint %v != fresh %v", step, got, want)
		}
	}
}

// TestFingerprintGolden pins exact fingerprint values. Memo keys and
// persisted -memo-file snapshots are keyed by them, so any change to the
// hash formula must show up here rather than as silent memo misses after
// an upgrade.
func TestFingerprintGolden(t *testing.T) {
	p := cfggen.DefaultProfile("golden", 7)
	dups := cfggen.GenerateNearDuplicates(cfggen.NearDuplicateProfile{Base: p, Clones: 2, EditSeed: 5})
	for _, tc := range []struct {
		name string
		f    *ir.Func
		want ir.Fingerprint
	}{
		{"diamond", ir.MustParse(fpDiamondSrc), ir.Fingerprint{Hi: 0x15bb9f87241488cf, Lo: 0xafca383312432f01}},
		{"generated", cfggen.Generate(p)[0], ir.Fingerprint{Hi: 0x697e616296c3039e, Lo: 0x92f6181174dde7a0}},
		{"dead-copy clone", dups[2], ir.Fingerprint{Hi: 0x5fde2f4d3829f6c2, Lo: 0x43ef498c89819b06}},
	} {
		if got := tc.f.Fingerprint(); got != tc.want {
			t.Errorf("%s: fingerprint %#x/%#x, want %#x/%#x", tc.name, got.Hi, got.Lo, tc.want.Hi, tc.want.Lo)
		}
	}
}
