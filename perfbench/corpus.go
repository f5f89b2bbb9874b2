package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"repro/internal/cfggen"
	"repro/internal/ir"
	"repro/outofssa/serve"
)

// Corpus shape. The serve-small pool is larger than the memo's default
// entry bound (4096), so cycling through it in order makes the LRU memo
// miss on every request. The serve-dup pool stores three distinct
// fingerprints per group (base, dead-copy clone, swapped-branch clone; the
// rename-only clone shares its base's), 4608 in all, so an entry is evicted
// before its group comes round again and the hit share stays the designed
// one.
const (
	smallPool     = 4608
	dupGroups     = 1536
	dupClones     = 3
	dupGroupsPerR = 2 // groups whose bases one serve-dup request carries
	dupLag        = 4 // a request carries the clones of the groups whose bases went dupLag requests earlier
	dupRegisters  = 8
	largeFuncs    = 256
	largeBatch    = 8 // functions per TranslateAll call
	genChunks     = 8 // fixed, so the corpus does not depend on the CPU count
)

// request is one pre-encoded request of a serve stream.
type request struct {
	body []byte
	// fns are the corpus indices of the functions the request carries, in
	// source order.
	fns []int
	// designedHits counts the functions the memo must hit: clones whose
	// fingerprint equals that of their base, sent dupLag requests earlier.
	designedHits int
}

// corpus is one workload's generated input.
type corpus struct {
	// funcs are the generated functions; nil once a serve workload has set
	// up, when original reparses them from sources instead.
	funcs   []*ir.Func
	sources []string
	// reqs is the request sequence of a serve workload; stream position s
	// sends reqs[reqIndex(s)].
	reqs  []request
	batch bool // requests go to /v1/batch
	warm  int  // leading requests sent only at stream start (serve-dup)
}

// original returns corpus function i as the program received it.
func (c *corpus) original(i int) (*ir.Func, error) {
	if c.funcs != nil {
		return c.funcs[i], nil
	}
	return ir.Parse(c.sources[i])
}

// reqIndex maps a stream position to its request.
func (c *corpus) reqIndex(s int) int {
	if s < c.warm {
		return s
	}
	return c.warm + (s-c.warm)%(len(c.reqs)-c.warm)
}

// chunkSeed derives the generator seed of one chunk from the run's seed.
func chunkSeed(seed int64, chunk int) int64 { return seed*1_000_003 + int64(chunk) + 1 }

// generate runs gen for each of genChunks chunks on up to workers
// goroutines and concatenates the results in chunk order.
func generate(workers int, gen func(chunk int) []*ir.Func) []*ir.Func {
	parts := make([][]*ir.Func, genChunks)
	var wg sync.WaitGroup
	next := make(chan int, genChunks) // holds every chunk index up front
	for c := range genChunks {
		next <- c
	}
	close(next)
	for range min(workers, genChunks) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				parts[c] = gen(c)
			}
		}()
	}
	wg.Wait()
	var out []*ir.Func
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// newCorpus generates a workload's corpus. size is its function count
// (serve-dup: its near-duplicate group count), a multiple of genChunks; 0
// selects the timed corpus's size.
func newCorpus(workload string, seed int64, workers, size int) (*corpus, error) {
	if size%genChunks != 0 {
		return nil, fmt.Errorf("corpus size %d is not a multiple of %d", size, genChunks)
	}
	switch workload {
	case "serve-small":
		return smallCorpus(seed, workers, cmp.Or(size, smallPool))
	case "serve-dup":
		return dupCorpus(seed, workers, cmp.Or(size, dupGroups))
	case "batch-large":
		return largeCorpus(seed, workers, cmp.Or(size, largeFuncs)), nil
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

func smallCorpus(seed int64, workers, size int) (*corpus, error) {
	funcs := generate(workers, func(c int) []*ir.Func {
		p := cfggen.DefaultProfile(fmt.Sprintf("s%d", c), chunkSeed(seed, c))
		p.Funcs = size / genChunks
		return cfggen.Generate(p)
	})
	c := &corpus{funcs: funcs, sources: render(funcs)}
	for i, src := range c.sources {
		body, err := json.Marshal(serve.TranslateRequest{Source: src})
		if err != nil {
			return nil, err
		}
		c.reqs = append(c.reqs, request{body: body, fns: []int{i}})
	}
	return c, nil
}

func dupCorpus(seed int64, workers, groups int) (*corpus, error) {
	per := groups / genChunks
	funcs := generate(workers, func(c int) []*ir.Func {
		p := cfggen.DefaultProfile(fmt.Sprintf("d%d", c), chunkSeed(seed, c))
		p.Funcs = per
		fs := cfggen.GenerateNearDuplicates(cfggen.NearDuplicateProfile{Base: p, Clones: dupClones, EditSeed: seed})
		// The wire's registers=n names the pool r0..r(n-1), while the
		// generator pins call sites to R0/R1; lower-case the pins so the
		// constrained call sites stay in the workload and allocate.
		for _, f := range fs {
			for i := range f.Vars {
				f.Vars[i].Reg = strings.ToLower(f.Vars[i].Reg)
			}
		}
		return fs
	})
	c := &corpus{funcs: funcs, sources: render(funcs), batch: true, warm: dupLag}
	group := func(g int) []int { // corpus indices: base first, then its clones
		g %= groups
		idx := make([]int, dupClones+1)
		for j := range idx {
			idx[j] = g*(dupClones+1) + j
		}
		return idx
	}
	cycle := groups / dupGroupsPerR
	add := func(bases, clonesOf int) error {
		var r request
		for i := range dupGroupsPerR {
			r.fns = append(r.fns, group(bases*dupGroupsPerR + i)[0])
		}
		if clonesOf >= 0 {
			for i := range dupGroupsPerR {
				g := group(clonesOf*dupGroupsPerR + i)
				base := c.funcs[g[0]].Fingerprint()
				for _, k := range g[1:] {
					r.fns = append(r.fns, k)
					if c.funcs[k].Fingerprint() == base {
						r.designedHits++
					}
				}
			}
		}
		var src strings.Builder
		for _, k := range r.fns {
			src.WriteString(c.sources[k])
		}
		body, err := json.Marshal(serve.TranslateRequest{Source: src.String(), Registers: dupRegisters})
		if err != nil {
			return err
		}
		r.body = body
		c.reqs = append(c.reqs, r)
		return nil
	}
	// Stream start: bases only, so every later request finds the bases of
	// the clones it carries already stored.
	for s := range dupLag {
		if err := add(s, -1); err != nil {
			return nil, err
		}
	}
	// Steady state: position s >= dupLag sends request dupLag + (s-dupLag)%cycle,
	// which carries the bases of groups-block s%cycle and the clones of
	// block (s-dupLag)%cycle.
	for k := range cycle {
		s := dupLag + k
		if err := add(s%cycle, (s-dupLag)%cycle); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func largeCorpus(seed int64, workers, size int) *corpus {
	funcs := generate(workers, func(c int) []*ir.Func {
		p := cfggen.LargeTranslateProfile(fmt.Sprintf("l%d", c), chunkSeed(seed, c), 1)
		p.Funcs = size / genChunks
		return cfggen.GenerateLarge(p)
	})
	return &corpus{funcs: funcs, sources: render(funcs)}
}

func render(funcs []*ir.Func) []string {
	out := make([]string, len(funcs))
	for i, f := range funcs {
		out[i] = f.String()
	}
	return out
}
