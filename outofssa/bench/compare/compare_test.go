package compare

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/outofssa/bench"
)

// synthetic builds a perfbench envelope for one workload and variant with n
// samples per metric drawn around the given centers with a small relative
// jitter. The copy counts, intersection tests and failed share repeat
// exactly in real runs, which is what makes their zero-regress gates
// viable.
func synthetic(workload, variant string, rng *rand.Rand, n int, jitter float64, centers map[string]float64) *bench.Report {
	rep := bench.NewReport(bench.PerfbenchTrajectory)
	rep.Count = n
	for i := 0; i < n; i++ {
		for name, c := range centers {
			v := c
			if jitter > 0 && bench.MetricInfo(name).MachineSensitive {
				v = c * (1 + (rng.Float64()*2-1)*jitter)
			}
			rep.Sample(workload, variant, name, v)
		}
	}
	return rep
}

// batchLarge is synthetic for untraced batch-large runs.
func batchLarge(rng *rand.Rand, n int, jitter float64, centers map[string]float64) *bench.Report {
	return synthetic("batch-large", "untraced", rng, n, jitter, centers)
}

// scaled returns a copy of the centers with one metric multiplied.
func scaled(centers map[string]float64, metric string, factor float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range centers {
		out[k] = v
	}
	out[metric] *= factor
	return out
}

var baseCenters = map[string]float64{
	"funcs_per_s":              200,
	"copies_weighted_per_func": 88.3125,
	"final_copies_per_func":    103.671875,
	"peak_rss_mb":              420,
	"setup_s":                  1.6,
	"failed_share":             0,
}

// TestCompareInjectedRegressions: a synthetic regression of each metric
// kind — throughput, memory, set-up time, quality count — must fire the
// gate; the injection direction matters.
func TestCompareInjectedRegressions(t *testing.T) {
	cases := []struct {
		metric string
		factor float64
	}{
		{"funcs_per_s", 0.60},              // -40% on a higher-is-better metric, limit 25%
		{"peak_rss_mb", 1.30},              // +30% memory, limit 15%
		{"setup_s", 1.50},                  // +50% set-up, limit 25%
		{"copies_weighted_per_func", 1.01}, // any quality regression, limit 0
		{"final_copies_per_func", 1.01},
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(1))
		baseline := batchLarge(rng, 5, 0.02, baseCenters)
		candidate := batchLarge(rng, 5, 0.02, scaled(baseCenters, tc.metric, tc.factor))
		res, err := Compare(baseline, candidate, PerfbenchPolicies(), Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.metric, err)
		}
		if res.OK() {
			t.Errorf("injected %s×%.2f regression passed the gate:\n%s", tc.metric, tc.factor, res.Format())
			continue
		}
		found := false
		for _, v := range res.Violations {
			if v.Delta.Metric == tc.metric {
				found = true
			}
		}
		if !found {
			t.Errorf("injected %s regression fired the wrong gate: %v", tc.metric, res.Messages())
		}
	}
}

// TestCompareNoiseWithinBoundsPasses: across many seeds, jitter well inside
// every limit must never fire — the gate tolerates measurement noise.
func TestCompareNoiseWithinBoundsPasses(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		baseline := batchLarge(rng, 7, 0.04, baseCenters)
		candidate := batchLarge(rng, 7, 0.04, baseCenters)
		res, err := Compare(baseline, candidate, PerfbenchPolicies(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK() {
			t.Fatalf("seed %d: noise within bounds fired the gate: %v", seed, res.Messages())
		}
	}
}

// TestCompareIdenticalRunPasses: comparing a report with itself — the CI
// self-check — is always clean, including the zero-regress quality gates.
func TestCompareIdenticalRunPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rep := batchLarge(rng, 3, 0.05, baseCenters)
	res, err := Compare(rep, rep, PerfbenchPolicies(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("identical comparison fired the gate: %v", res.Messages())
	}
}

// TestCompareImprovementsPass: movement in the better direction is never a
// regression, however large.
func TestCompareImprovementsPass(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	baseline := batchLarge(rng, 5, 0.02, baseCenters)
	improved := scaled(scaled(scaled(baseCenters, "funcs_per_s", 2), "peak_rss_mb", 0.5), "copies_weighted_per_func", 0.9)
	candidate := batchLarge(rng, 5, 0.02, improved)
	res, err := Compare(baseline, candidate, PerfbenchPolicies(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("improvement fired the gate: %v", res.Messages())
	}
}

// TestCompareSingleSamplePointComparison: n=1 rows still gate, but degrade
// to a loudly-warned point comparison rather than a silent pass.
func TestCompareSingleSamplePointComparison(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	baseline := batchLarge(rng, 1, 0, baseCenters)
	candidate := batchLarge(rng, 1, 0, scaled(baseCenters, "peak_rss_mb", 1.5))
	res, err := Compare(baseline, candidate, PerfbenchPolicies(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("single-sample regression passed silently")
	}
	warned := false
	for _, w := range res.Warnings {
		if strings.Contains(w, "point comparison") {
			warned = true
		}
	}
	if !warned {
		t.Fatalf("missing single-sample warning: %v", res.Warnings)
	}
	for _, v := range res.Violations {
		if v.Delta.Metric == "peak_rss_mb" && !strings.Contains(v.Msg, "point comparison") {
			t.Fatalf("violation does not flag the point comparison: %s", v.Msg)
		}
	}
}

// TestCompareMachineShapeMismatch: a shape mismatch refuses by default;
// with AllowMachineMismatch it warns and skips wall-clock relative gates
// but still fires machine-neutral ones (copy counts).
func TestCompareMachineShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	baseline := batchLarge(rng, 3, 0.02, baseCenters)
	regressed := scaled(scaled(baseCenters, "funcs_per_s", 0.5), "final_copies_per_func", 1.1)
	candidate := batchLarge(rng, 3, 0.02, regressed)
	baseline.Env.NumCPU = candidate.Env.NumCPU + 8
	baseline.Env.GOMAXPROCS = candidate.Env.GOMAXPROCS + 8

	if _, err := Compare(baseline, candidate, PerfbenchPolicies(), Options{}); err == nil {
		t.Fatal("machine shape mismatch must refuse by default")
	}

	res, err := Compare(baseline, candidate, PerfbenchPolicies(), Options{AllowMachineMismatch: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) == 0 || !strings.Contains(res.Warnings[0], "MACHINE SHAPE MISMATCH") {
		t.Fatalf("missing machine-mismatch warning: %v", res.Warnings)
	}
	sawCopies := false
	for _, v := range res.Violations {
		if v.Delta.Metric == "funcs_per_s" {
			t.Fatalf("wall-clock gate fired across machine shapes: %s", v.Msg)
		}
		if v.Delta.Metric == "final_copies_per_func" {
			sawCopies = true
		}
	}
	if !sawCopies {
		t.Fatalf("machine-neutral copy gate skipped: %v", res.Messages())
	}
}

// TestCompareTrajectoryAndScaleMismatch: envelopes from different
// trajectories, or measured on different corpora (different perfbench
// workloads), never compare.
func TestCompareTrajectoryAndScaleMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := batchLarge(rng, 3, 0.02, baseCenters)
	b := batchLarge(rng, 3, 0.02, baseCenters)
	b.Trajectory = "other"
	if _, err := Compare(a, b, nil, Options{}); err == nil {
		t.Fatal("trajectory mismatch must error")
	}
	c := synthetic("serve-small", "untraced", rng, 3, 0.02, baseCenters)
	if _, err := Compare(a, c, PerfbenchPolicies(), Options{}); err == nil {
		t.Fatal("different workloads must not compare")
	}
}

// TestCheckAbsoluteGates: absolute bounds fire against the candidate alone
// (a run compared with itself), and Required policies catch an envelope
// that dropped the gated metric.
func TestCheckAbsoluteGates(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	failing := batchLarge(rng, 3, 0.02, baseCenters)
	failing.Row("batch-large", "untraced").Metric("failed_share").Samples = []float64{0.01, 0.01, 0.01}
	if res, err := Compare(failing, failing, PerfbenchPolicies(), Options{}); err != nil || res.OK() {
		t.Fatalf("a 1%% failed share passed the zero ceiling (err %v)", err)
	}

	missing := map[string]float64{"funcs_per_s": 200}
	rep := batchLarge(rng, 3, 0.02, missing)
	res, err := Compare(rep, rep, PerfbenchPolicies(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("an envelope without failed_share passed the Required gate")
	}
}

// TestScaleEfficiencyFloor: the batch driver's parallel-efficiency floor
// holds on traced batch-large runs and nowhere else.
func TestScaleEfficiencyFloor(t *testing.T) {
	traced := func(workload string, eff float64) *bench.Report {
		return synthetic(workload, "traced", rand.New(rand.NewSource(9)), 1, 0,
			map[string]float64{"pipeline.batch_efficiency": eff, "failed_share": 0})
	}
	for _, tc := range []struct {
		workload string
		eff      float64
		ok       bool
	}{
		{"batch-large", 0.72, true},
		{"batch-large", 0.5, false},
		{"serve-small", 0.5, true},
	} {
		rep := traced(tc.workload, tc.eff)
		res, err := Compare(rep, rep, PerfbenchPolicies(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.OK() != tc.ok {
			t.Fatalf("%s efficiency %v: gate ok=%v, want %v: %v", tc.workload, tc.eff, res.OK(), tc.ok, res.Messages())
		}
	}
}

// TestPerfbenchPoliciesCoverBenchmark reads BENCHMARK.json: every
// end-to-end metric has an unscoped relative policy no looser than its
// bound, and the registry's direction of every declared metric matches the
// file's. The copy and intersection-test metrics are held at zero
// regression.
func TestPerfbenchPoliciesCoverBenchmark(t *testing.T) {
	raw, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var manifest struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.EndToEnd) == 0 {
		t.Fatal("BENCHMARK.json declares no end-to-end metric")
	}
	regress := map[string]float64{}
	for _, p := range PerfbenchPolicies() {
		if p.MaxRegress >= 0 && p.Case == "" && p.Variant == "" {
			regress[p.Metric] = p.MaxRegress
		}
	}
	for _, m := range append(manifest.EndToEnd, manifest.PerLayer...) {
		want := bench.LowerIsBetter
		if m.Better == "higher" {
			want = bench.HigherIsBetter
		}
		if got := bench.MetricInfo(m.Name).Better; got != want {
			t.Errorf("%s: registry direction %v, BENCHMARK.json says %s", m.Name, got, m.Better)
		}
	}
	for _, m := range manifest.EndToEnd {
		bound, ok := regress[m.Name]
		if !ok {
			t.Errorf("%s: no policy gates this end-to-end metric", m.Name)
			continue
		}
		if bound > m.Bound {
			t.Errorf("%s: policy allows %v regression, BENCHMARK.json bounds it at %v", m.Name, bound, m.Bound)
		}
	}
	for _, name := range []string{"copies_weighted_per_func", "final_copies_per_func", "core.intersection_tests_per_func"} {
		if bound, ok := regress[name]; !ok || bound != 0 {
			t.Errorf("%s must be held at zero regression (policy %v, present %v)", name, bound, ok)
		}
	}
}

// TestMannWhitney sanity: clearly separated samples are significant,
// identical samples are not, and NaN marks under-sampled sides.
func TestMannWhitney(t *testing.T) {
	lo := []float64{10, 11, 12, 10.5, 11.5, 10.2, 11.8, 10.9}
	hi := []float64{20, 21, 22, 20.5, 21.5, 20.2, 21.8, 20.9}
	if p := mannWhitneyP(lo, hi); p >= 0.05 {
		t.Fatalf("separated samples p=%.4f, want <0.05", p)
	}
	same := []float64{5, 5, 5, 5}
	if p := mannWhitneyP(same, same); p < 0.99 {
		t.Fatalf("identical samples p=%.4f, want ≈1", p)
	}
	if p := mannWhitneyP(nil, hi); !math.IsNaN(p) {
		t.Fatalf("empty side p=%v, want NaN", p)
	}
}

// TestFormatMentionsEverything: the rendered table carries the verdict,
// the warnings, and the violations — it is the CI log artifact.
func TestFormatMentionsEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	baseline := batchLarge(rng, 3, 0.02, baseCenters)
	candidate := batchLarge(rng, 3, 0.02, scaled(baseCenters, "peak_rss_mb", 2))
	res, err := Compare(baseline, candidate, PerfbenchPolicies(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Format()
	for _, want := range []string{"perfbench", "peak_rss_mb", "VIOLATION", "gate: FAIL"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}
}
