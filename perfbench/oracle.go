package main

import (
	"fmt"
	"sync"

	"repro/internal/interp"
	"repro/internal/ir"
)

// The oracle's fixed parameter vectors and its step bound. The vectors are
// passed whole: the printed form of a function declares only the parameters
// it reads, so an output's arity may be below its original's.
var oracleParams = [][]int64{{0, 0, 0, 0}, {1, 7, 3, 2}, {13, 5, 11, 9}, {-4, 9, 0, 1}}

const oracleSteps = 1 << 20

type fnOutputKey struct {
	fn     int
	output string
}

// checkOutputs runs the interpreter oracle on every distinct (function,
// output) pair in outs against the original function, on up to workers
// goroutines, and returns the pairs that fail and how many returned
// functions carried them.
func checkOutputs(c *corpus, outs [][]outcome, workers int) (map[fnOutputKey]bool, int) {
	counts := map[fnOutputKey]int{}
	for _, phase := range outs {
		for i := range phase {
			for _, r := range phase[i].results {
				counts[fnOutputKey{r.fn, r.output}]++
			}
		}
	}
	keys := make(chan fnOutputKey, len(counts)) // holds every key up front
	for k := range counts {
		keys <- k
	}
	close(keys)
	var mu sync.Mutex
	wrong := map[fnOutputKey]bool{}
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range keys {
				orig, err := c.original(k.fn)
				if err == nil {
					err = equivalent(orig, k.output)
				}
				if err != nil {
					mu.Lock()
					wrong[k] = true
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	n := 0
	for k := range wrong {
		n += counts[k]
	}
	return wrong, n
}

// equivalent parses a returned function and compares its interpreted
// behaviour with the original's on every oracle vector.
func equivalent(orig *ir.Func, output string) error {
	fns, err := ir.ParseAll(output)
	if err != nil {
		return err
	}
	if len(fns) != 1 {
		return fmt.Errorf("output holds %d functions", len(fns))
	}
	return equivalentFunc(orig, fns[0])
}

func equivalentFunc(orig, got *ir.Func) error {
	for _, params := range oracleParams {
		want, werr := interp.Run(orig, params, oracleSteps)
		have, herr := interp.Run(got, params, oracleSteps)
		switch {
		case werr != nil || herr != nil:
			if (werr == nil) != (herr == nil) {
				return fmt.Errorf("%s%v: original error %v, output error %v", orig.Name, params, werr, herr)
			}
		case !interp.Equal(want, have):
			return fmt.Errorf("%s%v: behaviour differs", orig.Name, params)
		}
	}
	return nil
}
