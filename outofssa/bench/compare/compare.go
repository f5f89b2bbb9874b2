// Package compare is the statistical A/B half of the bench subsystem: a
// benchstat-style comparison of two report envelopes (multiple samples per
// metric, median + spread, Mann-Whitney significance annotation,
// per-metric better-direction from the bench registry) plus a policy gate
// expressed as data (PerfbenchPolicies).
//
// Gate semantics: a Policy matches rows by (case, variant, metric) and
// fires a violation when the candidate's median moved beyond MaxRegress in
// the metric's worse direction relative to the baseline, or breached an
// absolute Min/Max bound. Medians damp run-to-run noise; the repeat count
// is surfaced so a single-sample comparison degrades to a loudly-warned
// point comparison instead of a silent pass. Relative gates on
// machine-sensitive metrics (wall clock, throughput) are skipped — with a
// warning — when the two envelopes disagree on machine shape and the
// caller opted into AllowMachineMismatch; by default a shape mismatch
// refuses to compare at all.
package compare

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/outofssa/bench"
)

// Options configures a comparison.
type Options struct {
	// Alpha is the significance level of the Mann-Whitney annotation
	// (default 0.05).
	Alpha float64
	// AllowMachineMismatch downgrades a machine-shape disagreement from a
	// refusal to a loud warning that skips relative gates on
	// machine-sensitive metrics.
	AllowMachineMismatch bool
}

// Delta is one (case, variant, metric) cell of the comparison.
type Delta struct {
	Case, Variant, Metric string
	OldMedian, NewMedian  float64
	OldN, NewN            int
	// PctChange is the signed relative change of the median (+ = larger).
	PctChange float64
	// WorsePct is the direction-adjusted regression amount: how far the
	// median moved in the metric's worse direction (≤0 = no worse).
	WorsePct float64
	// P is the Mann-Whitney two-sided p-value (NaN when either side has
	// too few samples for the test); Significant is P < alpha.
	P           float64
	Significant bool
	// PointComparison marks cells where either side has a single sample —
	// no variance to reason about.
	PointComparison bool
}

// Violation is one fired gate.
type Violation struct {
	Delta  Delta
	Policy Policy
	Msg    string
}

// Result is the outcome of one Compare or Check call.
type Result struct {
	Trajectory string
	Deltas     []Delta
	Warnings   []string
	Violations []Violation
}

// OK reports whether the gate passed.
func (r *Result) OK() bool { return len(r.Violations) == 0 }

// Messages returns the violation messages, one per fired gate.
func (r *Result) Messages() []string {
	out := make([]string, len(r.Violations))
	for i := range r.Violations {
		out[i] = r.Violations[i].Msg
	}
	return out
}

// Compare runs the statistical comparison of candidate against baseline
// and applies the policies. The envelopes must belong to the same
// trajectory and share at least one (case, variant) row — two different
// perfbench workloads never compare; machine-shape disagreement refuses
// unless opts.AllowMachineMismatch.
func Compare(baseline, candidate *bench.Report, policies []Policy, opts Options) (*Result, error) {
	if baseline == nil || candidate == nil {
		return nil, fmt.Errorf("compare: nil report")
	}
	if baseline.Trajectory != candidate.Trajectory {
		return nil, fmt.Errorf("compare: trajectory mismatch: baseline %q vs candidate %q",
			baseline.Trajectory, candidate.Trajectory)
	}
	if opts.Alpha == 0 {
		opts.Alpha = 0.05
	}
	res := &Result{Trajectory: candidate.Trajectory}

	sameShape := machineShapeEqual(baseline.Env, candidate.Env)
	if !sameShape {
		if !opts.AllowMachineMismatch {
			return nil, fmt.Errorf(
				"compare: machine shape mismatch: baseline [%s] vs candidate [%s] — rerun the baseline on this machine or pass the allow-machine-mismatch option",
				baseline.Env.MachineShape(), candidate.Env.MachineShape())
		}
		res.Warnings = append(res.Warnings, fmt.Sprintf(
			"MACHINE SHAPE MISMATCH: baseline [%s] vs candidate [%s] — relative gates on machine-sensitive metrics are skipped",
			baseline.Env.MachineShape(), candidate.Env.MachineShape()))
	}

	pointWarned, shared := false, false
	for ci := range candidate.Rows {
		row := &candidate.Rows[ci]
		base := findRow(baseline, row.Case, row.Variant)
		shared = shared || base != nil
		if base == nil {
			// A row new to the candidate (say, a traced run beside an
			// untraced baseline) skips the relative gates; absolute
			// bounds still apply.
			res.Warnings = append(res.Warnings, fmt.Sprintf(
				"%s/%s: no baseline row (new case?) — relative gates skipped", row.Case, row.Variant))
		}
		for mi := range row.Metrics {
			m := &row.Metrics[mi]
			d := Delta{
				Case: row.Case, Variant: row.Variant, Metric: m.Name,
				NewMedian: bench.Median(m.Samples), NewN: len(m.Samples),
				P: math.NaN(),
			}
			var bm *bench.Metric
			if base != nil {
				bm = base.Metric(m.Name)
			}
			if bm != nil {
				d.OldMedian = bench.Median(bm.Samples)
				d.OldN = len(bm.Samples)
				if d.OldMedian != 0 {
					d.PctChange = (d.NewMedian - d.OldMedian) / math.Abs(d.OldMedian) * 100
				} else if d.NewMedian != 0 {
					d.PctChange = math.Inf(sign(d.NewMedian))
				}
				def := bench.MetricInfo(m.Name)
				d.WorsePct = d.PctChange
				if def.Better == bench.HigherIsBetter {
					d.WorsePct = -d.PctChange
				}
				d.PointComparison = d.OldN < 2 || d.NewN < 2
				if !d.PointComparison {
					d.P = mannWhitneyP(bm.Samples, m.Samples)
					d.Significant = d.P < opts.Alpha
				}
				if d.PointComparison && !pointWarned && d.OldN > 0 {
					res.Warnings = append(res.Warnings,
						"single-sample rows present: comparison degrades to point comparison (import several runs for real variance)")
					pointWarned = true
				}
			}
			res.Deltas = append(res.Deltas, d)
		}
	}

	if !shared {
		return nil, fmt.Errorf("compare: baseline rows %s and candidate rows %s have none in common — compare runs of the same workload",
			rowNames(baseline), rowNames(candidate))
	}
	applyPolicies(res, policies, sameShape)
	return res, nil
}

// applyPolicies fires relative and absolute gates over the deltas.
func applyPolicies(res *Result, policies []Policy, sameShape bool) {
	for _, p := range policies {
		matched := false
		for i := range res.Deltas {
			d := &res.Deltas[i]
			if !p.matches(d.Case, d.Variant, d.Metric) {
				continue
			}
			matched = true
			def := bench.MetricInfo(d.Metric)
			// Relative gate: candidate median moved beyond MaxRegress in
			// the worse direction, against a baseline row that exists.
			if p.MaxRegress >= 0 && d.OldN > 0 {
				if !sameShape && def.MachineSensitive {
					// Warned once globally; cross-machine wall clock is
					// not comparable.
				} else if d.WorsePct > p.MaxRegress*100+1e-9 {
					note := ""
					if d.PointComparison {
						note = " [point comparison — no variance]"
					} else if !d.Significant {
						note = fmt.Sprintf(" [not significant at p=%.2f]", d.P)
					}
					res.Violations = append(res.Violations, Violation{
						Delta: *d, Policy: p,
						Msg: fmt.Sprintf("%s/%s: %s regressed %.1f%% (median %s → %s, limit +%.0f%%)%s",
							d.Case, d.Variant, d.Metric, d.WorsePct,
							formatVal(d.OldMedian), formatVal(d.NewMedian), p.MaxRegress*100, note),
					})
				}
			}
			fireAbsolute(res, p, d)
		}
		if !matched && p.Required {
			res.Violations = append(res.Violations, Violation{
				Policy: p,
				Msg: fmt.Sprintf("no measurement matches required gate %s (case %q variant %q)",
					p.Metric, p.Case, p.Variant),
			})
		}
	}
}

// fireAbsolute applies a policy's Min/Max bounds to one delta.
func fireAbsolute(res *Result, p Policy, d *Delta) {
	if !math.IsNaN(p.MinValue) && d.NewMedian < p.MinValue-1e-9 {
		res.Violations = append(res.Violations, Violation{
			Delta: *d, Policy: p,
			Msg: fmt.Sprintf("%s/%s: %s median %s below the %s floor",
				d.Case, d.Variant, d.Metric, formatVal(d.NewMedian), formatVal(p.MinValue)),
		})
	}
	if !math.IsNaN(p.MaxValue) && d.NewMedian > p.MaxValue+1e-9 {
		res.Violations = append(res.Violations, Violation{
			Delta: *d, Policy: p,
			Msg: fmt.Sprintf("%s/%s: %s median %s above the %s ceiling",
				d.Case, d.Variant, d.Metric, formatVal(d.NewMedian), formatVal(p.MaxValue)),
		})
	}
}

func findRow(rep *bench.Report, case_, variant string) *bench.Row {
	for i := range rep.Rows {
		if rep.Rows[i].Case == case_ && rep.Rows[i].Variant == variant {
			return &rep.Rows[i]
		}
	}
	return nil
}

// rowNames lists the report's rows as case/variant.
func rowNames(rep *bench.Report) string {
	names := make([]string, len(rep.Rows))
	for i := range rep.Rows {
		names[i] = rep.Rows[i].Case + "/" + rep.Rows[i].Variant
	}
	return "[" + strings.Join(names, " ") + "]"
}

func machineShapeEqual(a, b bench.Env) bool {
	return a.OS == b.OS && a.Arch == b.Arch && a.NumCPU == b.NumCPU &&
		a.GOMAXPROCS == b.GOMAXPROCS && a.GOGC == b.GOGC
}

func sign(v float64) int {
	if v < 0 {
		return -1
	}
	return 1
}

// Format renders the comparison as a benchstat-style table: one line per
// delta with medians, the signed change, and the significance annotation,
// followed by warnings and violations.
func (r *Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "compare: %s\n", r.Trajectory)
	caseW, varW, metW := len("case"), len("variant"), len("metric")
	for i := range r.Deltas {
		d := &r.Deltas[i]
		caseW = max(caseW, len(d.Case))
		varW = max(varW, len(d.Variant))
		metW = max(metW, len(d.Metric))
	}
	fmt.Fprintf(&b, "%-*s  %-*s  %-*s  %12s  %12s  %9s  %s\n",
		caseW, "case", varW, "variant", metW, "metric", "old", "new", "delta", "note")
	for i := range r.Deltas {
		d := &r.Deltas[i]
		old := "—"
		if d.OldN > 0 {
			old = formatVal(d.OldMedian)
		}
		delta := "—"
		if d.OldN > 0 {
			delta = fmt.Sprintf("%+.1f%%", d.PctChange)
		}
		note := ""
		switch {
		case d.OldN == 0:
			note = "no baseline"
		case d.PointComparison:
			note = "point"
		case d.Significant:
			note = fmt.Sprintf("p=%.3f", d.P)
		case !math.IsNaN(d.P):
			note = fmt.Sprintf("~ (p=%.2f n=%d+%d)", d.P, d.OldN, d.NewN)
		}
		fmt.Fprintf(&b, "%-*s  %-*s  %-*s  %12s  %12s  %9s  %s\n",
			caseW, d.Case, varW, d.Variant, metW, d.Metric,
			old, formatVal(d.NewMedian), delta, note)
	}
	for _, w := range r.Warnings {
		fmt.Fprintf(&b, "warning: %s\n", w)
	}
	for i := range r.Violations {
		fmt.Fprintf(&b, "VIOLATION: %s\n", r.Violations[i].Msg)
	}
	if len(r.Violations) == 0 {
		fmt.Fprintf(&b, "gate: PASS (%d cells compared)\n", len(r.Deltas))
	} else {
		fmt.Fprintf(&b, "gate: FAIL (%d violations over %d cells)\n", len(r.Violations), len(r.Deltas))
	}
	return b.String()
}

func formatVal(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}

// ------------------------------------------------------------ statistics

// mannWhitneyP computes the two-sided Mann-Whitney U test p-value with the
// normal approximation and tie correction — the benchstat significance
// annotation. Small sample counts cannot reach significance; that is
// surfaced, not hidden.
func mannWhitneyP(xs, ys []float64) float64 {
	n1, n2 := float64(len(xs)), float64(len(ys))
	if n1 == 0 || n2 == 0 {
		return math.NaN()
	}
	type obs struct {
		v     float64
		fromX bool
	}
	all := make([]obs, 0, len(xs)+len(ys))
	for _, v := range xs {
		all = append(all, obs{v, true})
	}
	for _, v := range ys {
		all = append(all, obs{v, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })

	// Midranks with tie groups; accumulate the tie correction term.
	ranks := make([]float64, len(all))
	tieTerm := 0.0
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		mid := float64(i+j-1)/2 + 1
		for k := i; k < j; k++ {
			ranks[k] = mid
		}
		t := float64(j - i)
		tieTerm += t*t*t - t
		i = j
	}
	r1 := 0.0
	for i, o := range all {
		if o.fromX {
			r1 += ranks[i]
		}
	}
	u1 := r1 - n1*(n1+1)/2
	u := math.Min(u1, n1*n2-u1)
	n := n1 + n2
	mean := n1 * n2 / 2
	variance := n1 * n2 / 12 * ((n + 1) - tieTerm/(n*(n-1)))
	if variance <= 0 {
		// All observations tied — no evidence of difference.
		return 1
	}
	// Continuity-corrected z; two-sided.
	z := (u - mean + 0.5) / math.Sqrt(variance)
	p := 2 * normalCDF(z)
	return math.Min(p, 1)
}

// normalCDF is Φ(z) for the standard normal distribution.
func normalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}
