package compare

import "math"

// Policy is one gate over the comparison: which cells it matches and what
// it demands of them. The zero value matches nothing useful — build
// policies with the constructors or set MinValue/MaxValue to NaN
// explicitly (0 is a real bound for those fields, so NaN disables).
type Policy struct {
	// Metric is the exact metric name the gate applies to (required).
	Metric string
	// Case and Variant restrict the gate to rows with exactly that case
	// (perfbench workload) and variant (untraced, traced); "" matches any.
	Case, Variant string
	// MaxRegress is the relative-regression gate: the candidate median may
	// move at most this fraction (0.20 = +20%) in the metric's worse
	// direction versus the baseline. Negative disables the relative gate.
	MaxRegress float64
	// MinValue and MaxValue are absolute bounds on the candidate median
	// (NaN disables each). These also apply to rows with no baseline row.
	MinValue, MaxValue float64
	// Required makes the absence of any matching measurement itself a
	// violation — an envelope silently dropping a gated metric must fail.
	Required bool
}

// Regress builds a relative-regression policy: metric may worsen at most
// maxRegress (fraction) against the baseline.
func Regress(metric string, maxRegress float64) Policy {
	return Policy{Metric: metric, MaxRegress: maxRegress,
		MinValue: math.NaN(), MaxValue: math.NaN()}
}

// Floor builds an absolute lower-bound policy on the candidate median.
func Floor(metric string, minValue float64) Policy {
	return Policy{Metric: metric, MaxRegress: -1,
		MinValue: minValue, MaxValue: math.NaN()}
}

// Ceiling builds an absolute upper-bound policy on the candidate median.
func Ceiling(metric string, maxValue float64) Policy {
	return Policy{Metric: metric, MaxRegress: -1,
		MinValue: math.NaN(), MaxValue: maxValue}
}

// On restricts the policy to rows with the given case and variant ("" leaves
// a filter open).
func (p Policy) On(case_, variant string) Policy {
	p.Case, p.Variant = case_, variant
	return p
}

// Require marks the policy Required.
func (p Policy) Require() Policy {
	p.Required = true
	return p
}

func (p Policy) matches(case_, variant, metric string) bool {
	return p.Metric == metric &&
		(p.Case == "" || p.Case == case_) &&
		(p.Variant == "" || p.Variant == variant)
}

// PerfbenchPolicies returns the standing gate of the perfbench envelopes:
//   - every BENCHMARK.json end-to-end metric within its bound, in its
//     direction, except the two copy metrics, which the benchmark bounds
//     at 2% but which repeat exactly, so any rise fails;
//   - core.intersection_tests_per_func (traced runs) never rises either;
//   - no failed operation;
//   - the batch driver's parallel efficiency at least 0.6 on traced
//     batch-large runs.
func PerfbenchPolicies() []Policy {
	return []Policy{
		Regress("funcs_per_s", 0.25),
		Regress("copies_weighted_per_func", 0),
		Regress("final_copies_per_func", 0),
		Regress("peak_rss_mb", 0.15),
		Regress("setup_s", 0.25),
		Regress("core.intersection_tests_per_func", 0),
		Ceiling("failed_share", 0).Require(),
		Floor("pipeline.batch_efficiency", 0.6).On("batch-large", "traced"),
	}
}
