package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/ir"
)

// ssadBinary builds cmd/ssad once for the tests that need a daemon.
func ssadBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ssad")
	out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/ssad").CombinedOutput()
	if err != nil {
		t.Fatalf("building ssad: %v\n%s", err, out)
	}
	return bin
}

// TestManifestMatchesTables checks that the committed BENCHMARK.json is the
// one the metric and workload tables render.
func TestManifestMatchesTables(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json differs from `perfbench -manifest`; regenerate it:\n%s", want)
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload at a tiny size, in
// both modes, and checks that the result line carries exactly the metrics
// BENCHMARK.json lists for the mode, each with its unit, and that the run
// is correct.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons and runs every workload")
	}
	var manifest struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	bin := ssadBinary(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{
				w: w, seed: 3, window: time.Second, trace: trace, ssad: bin, spans: t.TempDir(),
				workers: runtime.GOMAXPROCS(0), start: time.Now(),
				setupReps: 1, qualitySize: 8, warmupReqs: 16,
			}
			rep, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			var out bytes.Buffer
			if err := rep.print(&out); err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", w.Name, trace, err)
			}
			// At this size the timing checks (generator lateness, span
			// coverage) depend on how busy the machine is; outputs must be
			// right regardless.
			if rep.wrong != 0 || rep.failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: wrong=%d failed=%d attempted=%d\n%s", w.Name, trace, rep.wrong, rep.failed, res.Attempted, out.String())
			}
			for _, v := range rep.invalid {
				t.Logf("%s trace=%v: timing check at tiny size: %s", w.Name, trace, v)
			}
			want := manifest.EndToEnd
			if trace {
				want = manifest.PerLayer
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s: got %+v, present=%v, want unit %s", w.Name, trace, m.Name, got, ok, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(res.Metrics), len(want))
			}
		}
	}
}

// TestCorpusFollowsSeed checks that a seed reproduces its corpus and that
// another seed gives another one, compared by structural fingerprint.
func TestCorpusFollowsSeed(t *testing.T) {
	prints := func(workload string, seed int64, workers int) []ir.Fingerprint {
		c, err := newCorpus(workload, seed, workers, 0)
		if err != nil {
			t.Fatal(err)
		}
		fps := make([]ir.Fingerprint, len(c.funcs))
		for i, f := range c.funcs {
			fps[i] = f.Fingerprint()
		}
		return fps
	}
	equal := func(a, b []ir.Fingerprint) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for _, w := range workloads {
		a := prints(w.Name, 5, 1)
		if !equal(a, prints(w.Name, 5, 4)) {
			t.Errorf("%s: seed 5 gave different corpora on 1 and 4 generator goroutines", w.Name)
		}
		if equal(a, prints(w.Name, 6, 1)) {
			t.Errorf("%s: seeds 5 and 6 gave the same corpus", w.Name)
		}
	}
}
