package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/outofssa/bench"
	"repro/outofssa/bench/compare"
	"repro/outofssa/bench/store"
)

// storeCmd implements `ssabench store <list|snapshot|export|import>`;
// import reads in.
func storeCmd(args []string, in io.Reader) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "ssabench store: need a subcommand: list, snapshot, export, import")
		return 2
	}
	sub, rest := args[0], args[1:]
	fs := flag.NewFlagSet("store "+sub, flag.ExitOnError)
	dir := fs.String("store", store.DefaultDir, "bench store directory")
	switch sub {
	case "list":
		fs.Parse(rest)
		return storeList(*dir)
	case "snapshot":
		name := fs.String("name", "", "snapshot name to assign")
		ref := fs.String("ref", "latest", "run to name: latest, an id prefix, or an existing snapshot")
		fs.Parse(rest)
		if *name == "" {
			fmt.Fprintln(os.Stderr, "ssabench store snapshot: -name is required")
			return 2
		}
		st, err := store.Open(*dir)
		if err == nil {
			err = st.Snapshot(*name, *ref)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ssabench: %v\n", err)
			return 1
		}
		fmt.Printf("snapshot %s -> %s\n", *name, *ref)
		return 0
	case "export":
		ref := fs.String("ref", "latest", "run to export")
		out := fs.String("o", "", "output file (default stdout)")
		fs.Parse(rest)
		st, err := store.Open(*dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ssabench: %v\n", err)
			return 1
		}
		w := os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ssabench: %v\n", err)
				return 1
			}
			defer f.Close()
			w = f
		}
		if err := st.Export(w, *ref); err != nil {
			fmt.Fprintf(os.Stderr, "ssabench: %v\n", err)
			return 1
		}
		if *out != "" {
			fmt.Printf("exported %s to %s\n", *ref, *out)
		}
		return 0
	case "import":
		workload := fs.String("workload", "", "perfbench workload the result lines come from (required)")
		fs.Parse(rest)
		return storeImport(*dir, *workload, in)
	default:
		fmt.Fprintf(os.Stderr, "ssabench store: unknown subcommand %q (list, snapshot, export, import)\n", sub)
		return 2
	}
}

// storeImport appends the perfbench result lines read from in to the store
// as one envelope.
func storeImport(dir, workload string, in io.Reader) int {
	rep, err := bench.ImportPerfbench(in, workload)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssabench: %v\n", err)
		return 1
	}
	st, err := store.Open(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssabench: %v\n", err)
		return 1
	}
	id, err := st.Append(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssabench: %v\n", err)
		return 1
	}
	fmt.Print(bench.FormatReport(rep))
	fmt.Printf("stored %s (%s)\n", id, st.Dir())
	return 0
}

func storeList(dir string) int {
	st, err := store.Open(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssabench: %v\n", err)
		return 1
	}
	entries, skipped, err := st.List()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssabench: %v\n", err)
		return 1
	}
	snaps, err := st.Snapshots()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssabench: %v\n", err)
		return 1
	}
	byID := map[string][]string{}
	for name, id := range snaps {
		byID[id] = append(byID[id], name)
	}
	fmt.Printf("%-16s  %-10s  %-20s  %-10s  %s\n", "id", "trajectory", "timestamp", "commit", "snapshots")
	for _, e := range entries {
		fmt.Printf("%-16s  %-10s  %-20s  %-10s  %s\n",
			e.ID, e.Trajectory, e.Timestamp, e.Commit, strings.Join(byID[e.ID], ","))
	}
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "ssabench: warning: skipped %d corrupt run-log lines\n", skipped)
	}
	return 0
}

// compareCmd implements `ssabench compare`: resolve two envelopes (files
// or store references), apply compare.PerfbenchPolicies, and exit nonzero
// on any violation.
func compareCmd(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	dir := fs.String("store", store.DefaultDir, "bench store directory (for non-file references)")
	baseRef := fs.String("baseline", "", "baseline: an envelope file, or a store reference")
	candRef := fs.String("candidate", "latest", "candidate: an envelope file, or a store reference")
	allowMismatch := fs.Bool("allow-machine-mismatch", false, "compare across machine shapes, skipping wall-clock gates")
	inject := fs.String("inject", "", "synthetically regress one candidate metric, e.g. funcs_per_s=-50% (CI gate self-test)")
	fs.Parse(args)
	if *baseRef == "" {
		fmt.Fprintln(os.Stderr, "ssabench compare: -baseline is required")
		return 2
	}

	baseline, err := resolveReport(*dir, *baseRef)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssabench: baseline: %v\n", err)
		return 1
	}
	candidate, err := resolveReport(*dir, *candRef)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssabench: candidate: %v\n", err)
		return 1
	}
	if *inject != "" {
		if err := injectRegression(candidate, *inject); err != nil {
			fmt.Fprintf(os.Stderr, "ssabench: %v\n", err)
			return 2
		}
		fmt.Printf("injected synthetic regression: %s\n", *inject)
	}
	res, err := compare.Compare(baseline, candidate,
		compare.PerfbenchPolicies(),
		compare.Options{AllowMachineMismatch: *allowMismatch})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssabench: %v\n", err)
		return 1
	}
	fmt.Print(res.Format())
	if !res.OK() {
		return 1
	}
	return 0
}

// resolveReport loads an envelope from a file path or a store reference.
func resolveReport(dir, ref string) (*bench.Report, error) {
	if _, err := os.Stat(ref); err == nil {
		return bench.ReadReportFile(ref)
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	e, err := st.Resolve(ref)
	if err != nil {
		return nil, err
	}
	return e.Report, nil
}

// injectRegression worsens one metric of the report in place. spec is
// "metric=+P%" (or "-P%"): every sample of that metric is scaled by
// 1+P/100, so +10% on copies_weighted_per_func is a regression while -50%
// on funcs_per_s is one too — the sign follows the spec, the gate
// direction follows the metric registry.
func injectRegression(rep *bench.Report, spec string) error {
	name, pct, ok := strings.Cut(spec, "=")
	if !ok {
		return fmt.Errorf("invalid -inject %q (want metric=+P%%)", spec)
	}
	p, err := strconv.ParseFloat(strings.TrimSuffix(pct, "%"), 64)
	if err != nil {
		return fmt.Errorf("invalid -inject percentage %q: %v", pct, err)
	}
	factor := 1 + p/100
	touched := 0
	for i := range rep.Rows {
		if m := rep.Rows[i].Metric(name); m != nil {
			for j := range m.Samples {
				m.Samples[j] *= factor
			}
			touched++
		}
	}
	if touched == 0 {
		return fmt.Errorf("-inject: no row carries metric %q", name)
	}
	return nil
}
