package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// perfbenchLine renders one perfbench result line.
func perfbenchLine(correct bool, attempted, failed int, metrics map[string]float64) string {
	var parts []string
	for name, v := range metrics {
		parts = append(parts, fmt.Sprintf(`%q:{"value":%v,"unit":"x"}`, name, v))
	}
	return fmt.Sprintf(`{"correct":%v,"attempted":%d,"failed":%d,"metrics":{%s}}`,
		correct, attempted, failed, strings.Join(parts, ","))
}

// TestImportPerfbenchAccumulatesSamples: every result line is one run,
// and each metric cell collects one sample per run under a single
// (workload, variant) row; table lines are skipped.
func TestImportPerfbenchAccumulatesSamples(t *testing.T) {
	in := strings.Join([]string{
		"perfbench batch-large seed=1 window=3s (end to end, untraced)",
		"  funcs_per_s   110 1/s",
		perfbenchLine(true, 50, 0, map[string]float64{"funcs_per_s": 110, "final_copies_per_func": 7}),
		perfbenchLine(true, 50, 0, map[string]float64{"funcs_per_s": 120, "final_copies_per_func": 7}),
		perfbenchLine(true, 50, 0, map[string]float64{"funcs_per_s": 130, "final_copies_per_func": 7}),
	}, "\n")
	rep, err := ImportPerfbench(strings.NewReader(in), "batch-large")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Count != 3 || rep.Trajectory != PerfbenchTrajectory {
		t.Fatalf("count=%d trajectory=%q, want 3/%s", rep.Count, rep.Trajectory, PerfbenchTrajectory)
	}
	if len(rep.Rows) != 1 {
		t.Fatalf("repeat runs must share the row, got %d rows", len(rep.Rows))
	}
	row := rep.Row("batch-large", "untraced")
	if det := row.Metric("final_copies_per_func"); len(det.Samples) != 3 || det.Median() != 7 {
		t.Fatalf("deterministic metric: %+v", det)
	}
	if timed := row.Metric("funcs_per_s"); len(timed.Samples) != 3 || timed.Median() != 120 {
		t.Fatalf("timed metric: %+v", timed)
	}
	if fs := row.Metric("failed_share"); fs == nil || len(fs.Samples) != 3 || fs.Median() != 0 {
		t.Fatalf("failed_share: %+v", fs)
	}

	traced, err := ImportPerfbench(strings.NewReader(perfbenchLine(true, 7, 0,
		map[string]float64{"pipeline.batch_efficiency": 0.9})), "batch-large")
	if err != nil {
		t.Fatal(err)
	}
	if traced.Rows[0].Variant != "traced" {
		t.Fatalf("a line without funcs_per_s is from a traced run, got variant %q", traced.Rows[0].Variant)
	}
}

// TestImportPerfbenchRefusals: an incorrect run, a malformed line, input
// without any result line and a missing workload are errors.
func TestImportPerfbenchRefusals(t *testing.T) {
	good := perfbenchLine(true, 5, 0, map[string]float64{"funcs_per_s": 1})
	for _, tc := range []struct{ name, in, workload, want string }{
		{"incorrect", good + "\n" + perfbenchLine(false, 5, 1, map[string]float64{"funcs_per_s": 1}), "w", "line 2"},
		{"malformed", "{\"correct\":true,", "w", "line 1"},
		{"not a result", `{"schema":1}`, "w", "line 1"},
		{"empty", "perfbench: build failed\n", "w", "no perfbench result"},
		{"no workload", good, "", "workload"},
	} {
		_, err := ImportPerfbench(strings.NewReader(tc.in), tc.workload)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestReportJSONRoundTrip: the envelope round-trips through its JSON
// encoding — the store's format — with env and samples intact, and
// ReadReport rejects future schemas and anonymous envelopes.
func TestReportJSONRoundTrip(t *testing.T) {
	rep := NewReport(PerfbenchTrajectory)
	rep.Count = 2
	rep.Sample("serve-dup", "untraced", "funcs_per_s", 2100)
	rep.Sample("serve-dup", "untraced", "funcs_per_s", 2200)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema != SchemaVersion || back.Trajectory != rep.Trajectory ||
		back.Env.MachineShape() != rep.Env.MachineShape() || len(back.Rows) != len(rep.Rows) {
		t.Fatalf("round trip lost data:\nwrote %+v\nread  %+v", rep, back)
	}
	got := back.Row("serve-dup", "untraced").Metric("funcs_per_s")
	if len(got.Samples) != 2 || got.Median() != 2150 {
		t.Fatalf("samples lost: %+v", got)
	}

	if _, err := ReadReport(strings.NewReader(fmt.Sprintf(`{"schema": %d, "trajectory": "x"}`, SchemaVersion+1))); err == nil {
		t.Fatal("future schema must be rejected")
	}
	if _, err := ReadReport(strings.NewReader(`{"schema": 1}`)); err == nil {
		t.Fatal("a report naming no trajectory must be rejected")
	}
}

// TestCaptureEnvRecordsMachineShape: the uniform metadata fields the
// compare gate keys on are all populated.
func TestCaptureEnvRecordsMachineShape(t *testing.T) {
	e := CaptureEnv()
	if e.GoVersion == "" || e.OS == "" || e.Arch == "" || e.Timestamp == "" {
		t.Fatalf("unpopulated env: %+v", e)
	}
	if e.NumCPU < 1 || e.GOMAXPROCS < 1 || e.GOGC == 0 {
		t.Fatalf("machine shape fields missing: %+v", e)
	}
	shape := e.MachineShape()
	for _, part := range []string{e.OS, "cpus=", "gomaxprocs=", "gogc="} {
		if !strings.Contains(shape, part) {
			t.Fatalf("machine shape %q misses %q", shape, part)
		}
	}
}

// TestMedian covers odd, even, single, and empty sample sets.
func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestMetricInfo: registered metrics keep their direction and sensitivity;
// unknown ones get the conservative default.
func TestMetricInfo(t *testing.T) {
	if d := MetricInfo("funcs_per_s"); d.Better != HigherIsBetter || !d.MachineSensitive {
		t.Fatalf("funcs_per_s: %+v", d)
	}
	if d := MetricInfo("final_copies_per_func"); d.Better != LowerIsBetter || d.MachineSensitive {
		t.Fatalf("final_copies_per_func must be machine-neutral: %+v", d)
	}
	if d := MetricInfo("core.memo_hit_rate"); d.Better != HigherIsBetter {
		t.Fatalf("core.memo_hit_rate: %+v", d)
	}
	if d := MetricInfo("serve.decode_us"); d.Better != LowerIsBetter || !d.MachineSensitive {
		t.Fatalf("unregistered metric must default conservatively: %+v", d)
	}
}

// TestFormatReport: the table carries the header, spreads for varying
// metrics, and no spread for deterministic ones.
func TestFormatReport(t *testing.T) {
	rep := NewReport(PerfbenchTrajectory)
	rep.Count = 3
	for _, v := range []float64{110, 120, 130} {
		rep.Sample("batch-large", "untraced", "final_copies_per_func", 7)
		rep.Sample("batch-large", "untraced", "funcs_per_s", v)
	}
	out := FormatReport(rep)
	for _, want := range []string{"perfbench, count 3", "batch-large", "final_copies_per_func=7", "funcs_per_s=120(±10)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}
}
