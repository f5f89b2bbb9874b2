// Command ssabench regenerates the paper's evaluation figures on the
// synthetic SPEC CINT2000 stand-in suite:
//
//	ssabench -fig 5           # remaining copies per coalescing strategy
//	ssabench -fig 5 -strategy sharing   # one strategy vs the Intersect baseline
//	ssabench -fig 6 -reps 3   # translation speed per machinery combination
//	ssabench -fig 7           # memory footprint per machinery combination
//	ssabench -fig all         # every paper figure (5, 6 and 7)
//
// The bench store and its gate are subcommands. They keep the results of
// perfbench, the repository's benchmark of the served system
// (perfbench/run.sh, workloads in BENCHMARK.json):
//
//	bash perfbench/run.sh --workload batch-large | ssabench store import -workload batch-large
//	ssabench store list
//	ssabench store snapshot -name v1-baseline -ref latest
//	ssabench store export -ref v1-baseline -o baseline.json
//	ssabench compare -baseline v1-baseline -candidate latest
//	ssabench compare -baseline latest -candidate latest -inject funcs_per_s=-50%
//
// store import reads perfbench result lines from standard input, one per
// run, and appends them as one envelope. compare gates the candidate against
// the baseline under compare.PerfbenchPolicies: every BENCHMARK.json
// end-to-end metric within its bound, copy counts and intersection tests
// never worse, no failed operation, batch-large parallel efficiency at
// least 0.6. It exits 0 when every gate passes and 1 otherwise; -inject
// synthetically regresses one candidate metric so CI can demonstrate the
// gate actually fires. Baselines recorded on another machine shape refuse
// to compare unless -allow-machine-mismatch, which skips wall-clock gates
// (loudly) but keeps the machine-neutral copy and failure gates.
//
// -scale shrinks or grows the workload; -weighted adds the
// frequency-weighted companion of Figure 5; -workers sets the batch
// driver's worker pool for the untimed figures (0 = GOMAXPROCS).
// -cpuprofile and -memprofile write pprof profiles of the run:
//
//	ssabench -fig 6 -cpuprofile fig6.cpu.pprof
//	go tool pprof fig6.cpu.pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/cmd/internal/profileflags"
	"repro/outofssa"
	"repro/outofssa/bench"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "store":
			os.Exit(storeCmd(os.Args[2:], os.Stdin))
		case "compare":
			os.Exit(compareCmd(os.Args[2:]))
		}
	}

	fig := flag.String("fig", "all", "figure to regenerate: 5, 6, 7, or all")
	scale := flag.Float64("scale", 1, "workload scale factor")
	reps := flag.Int("reps", 3, "timing repetitions for figure 6")
	weighted := flag.Bool("weighted", false, "also print the frequency-weighted figure 5 table")
	workers := flag.Int("workers", 0, "pipeline batch workers for figures 5 and 7 (0 = GOMAXPROCS)")
	strategy := flag.String("strategy", "all",
		"restrict figure 5 to one coalescing strategy: all, or one of "+strings.Join(outofssa.StrategyNames(), "|"))
	profileflags.Register()
	flag.Parse()

	strategies := outofssa.Strategies
	if *strategy != "all" {
		s, err := outofssa.ParseStrategy(*strategy)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ssabench: %v\n", err)
			os.Exit(2)
		}
		strategies = []outofssa.Strategy{s}
	}
	bench.Workers = *workers
	os.Exit(run(*fig, *scale, *reps, *weighted, strategies))
}

// run dispatches the figure and returns the process exit code. It exists
// (instead of os.Exit calls inside the figure functions) so the deferred
// profile writers always flush — an os.Exit would skip them and truncate
// the profile.
func run(fig string, scale float64, reps int, weighted bool, strategies []outofssa.Strategy) int {
	stop, err := profileflags.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssabench: %v\n", err)
		return 1
	}
	defer stop()

	suite := bench.Suite(scale)
	total := 0
	for _, b := range suite {
		total += len(b.Funcs)
	}
	fmt.Printf("suite: %d benchmarks, %d functions (scale %g)\n\n", len(suite), total, scale)

	switch fig {
	case "5":
		fig5(suite, strategies, weighted)
	case "6":
		fig6(suite, reps)
	case "7":
		fig7(suite)
	case "all":
		fig5(suite, strategies, weighted)
		fmt.Println()
		fig6(suite, reps)
		fmt.Println()
		fig7(suite)
	default:
		fmt.Fprintf(os.Stderr, "ssabench: unknown figure %q\n", fig)
		return 2
	}
	return 0
}

func fig5(suite []bench.Benchmark, strategies []outofssa.Strategy, weighted bool) {
	rows := bench.Fig5For(suite, strategies)
	fmt.Print(bench.FormatFig5(suite, rows, false))
	if weighted {
		fmt.Println()
		fmt.Print(bench.FormatFig5(suite, rows, true))
	}
}

func fig6(suite []bench.Benchmark, reps int) {
	fmt.Print(bench.FormatFig6(suite, bench.Fig6(suite, reps)))
}

func fig7(suite []bench.Benchmark) {
	fmt.Print(bench.FormatFig7(bench.Fig7(suite)))
}
