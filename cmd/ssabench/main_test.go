package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/outofssa/bench"
	"repro/outofssa/bench/store"
)

// importFile runs `ssabench store import` on a testdata file (or on the
// given text when file is empty) and returns the exit code.
func importFile(t *testing.T, dir, workload, file, text string) int {
	t.Helper()
	if file != "" {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		text = string(raw)
	}
	return storeCmd([]string{"import", "-workload", workload, "-store", dir}, strings.NewReader(text))
}

// TestStoreImportGatesPerfbench drives the store and compare subcommands
// over real perfbench output (testdata holds the whole standard output of
// an untraced batch-large run and the result line of a traced one): the
// import round-trips through the store, a run compared with itself
// passes, an injected regression fails, and an incorrect run is refused.
func TestStoreImportGatesPerfbench(t *testing.T) {
	dir := t.TempDir()
	if code := importFile(t, dir, "batch-large", "testdata/batch-large.untraced.txt", ""); code != 0 {
		t.Fatalf("import exited %d", code)
	}
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, err := st.Resolve("latest")
	if err != nil {
		t.Fatal(err)
	}
	rep := e.Report
	if rep.Trajectory != bench.PerfbenchTrajectory || rep.Count != 1 || len(rep.Rows) != 1 {
		t.Fatalf("envelope header: trajectory %q count %d rows %d", rep.Trajectory, rep.Count, len(rep.Rows))
	}
	row := rep.Rows[0]
	if row.Case != "batch-large" || row.Variant != "untraced" {
		t.Fatalf("row %s/%s, want batch-large/untraced", row.Case, row.Variant)
	}
	for name, want := range map[string]float64{
		"funcs_per_s": 197.46166376990766, "copies_weighted_per_func": 88.3125,
		"final_copies_per_func": 103.671875, "peak_rss_mb": 414.2421875,
		"setup_s": 1.511973969, "failed_share": 0,
	} {
		if m := row.Metric(name); m == nil || len(m.Samples) != 1 || m.Samples[0] != want {
			t.Errorf("%s: got %+v, want one sample %v", name, m, want)
		}
	}
	var exported bytes.Buffer
	if err := st.Export(&exported, e.ID); err != nil {
		t.Fatal(err)
	}
	back, err := bench.ReadReport(&exported)
	if err != nil {
		t.Fatal(err)
	}
	if id, err := store.ID(back); err != nil || id != e.ID {
		t.Fatalf("export does not round-trip: id %s (%v), stored %s", id, err, e.ID)
	}

	self := []string{"-store", dir, "-baseline", "latest", "-candidate", "latest"}
	if code := compareCmd(self); code != 0 {
		t.Fatalf("the run compared with itself exited %d", code)
	}
	for _, inject := range []string{"funcs_per_s=-50%", "copies_weighted_per_func=+10%", "final_copies_per_func=+1%", "peak_rss_mb=+20%"} {
		if code := compareCmd(append(self, "-inject", inject)); code != 1 {
			t.Errorf("injected %s: compare exited %d, want 1", inject, code)
		}
	}

	// A traced run lands under its own variant and passes its own gates.
	if code := importFile(t, dir, "batch-large", "testdata/batch-large.traced.txt", ""); code != 0 {
		t.Fatalf("traced import exited %d", code)
	}
	if code := compareCmd(self); code != 0 {
		t.Fatalf("the traced run compared with itself exited %d", code)
	}
	if code := compareCmd(append(self, "-inject", "pipeline.batch_efficiency=-50%")); code != 1 {
		t.Errorf("an efficiency below the floor passed the gate")
	}

	// An incorrect run is refused and nothing is stored.
	raw, err := os.ReadFile("testdata/batch-large.traced.txt")
	if err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(string(raw), `"correct":true`, `"correct":false`, 1)
	if code := importFile(t, dir, "batch-large", "", bad); code != 1 {
		t.Fatalf("importing a correct:false line exited %d, want 1", code)
	}
	if entries, _, err := st.List(); err != nil || len(entries) != 2 {
		t.Fatalf("store holds %d entries (%v), want the 2 valid imports", len(entries), err)
	}
}
