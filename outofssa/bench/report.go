package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// Report envelope
//
// Every benchmark result the store keeps is one versioned envelope: run
// metadata (commit, machine shape, GOMAXPROCS, GOGC, timestamp) plus rows of
// named metric samples. ImportPerfbench builds one from perfbench result
// lines, the store appends it, compare gates two of them, and the store
// exports it as JSON.

// SchemaVersion is the envelope version; ReadReport rejects anything newer.
const SchemaVersion = 1

// Commit is recorded in every captured Env: the SSABENCH_COMMIT
// environment variable.
var Commit = os.Getenv("SSABENCH_COMMIT")

// Env is the run metadata recorded in every report envelope. compare
// refuses (or warns loudly) when two reports disagree on the machine-shape
// fields.
type Env struct {
	Commit     string `json:"commit,omitempty"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Hostname   string `json:"hostname,omitempty"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// GOGC is the effective collector target at capture time (100 unless
	// overridden; -1 = off).
	GOGC      int    `json:"gogc"`
	Timestamp string `json:"timestamp"` // RFC3339
}

// MachineShape summarizes the fields two comparable runs must agree on.
func (e Env) MachineShape() string {
	return fmt.Sprintf("%s/%s cpus=%d gomaxprocs=%d gogc=%d",
		e.OS, e.Arch, e.NumCPU, e.GOMAXPROCS, e.GOGC)
}

// CaptureEnv records the current process environment.
func CaptureEnv() Env {
	gogc := debug.SetGCPercent(100)
	debug.SetGCPercent(gogc)
	host, _ := os.Hostname()
	return Env{
		Commit:     Commit,
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Hostname:   host,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC:       gogc,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
}

// Direction is a metric's better-direction.
type Direction int8

const (
	LowerIsBetter Direction = iota
	HigherIsBetter
)

// MetricDef describes one named metric of the benchmark.
type MetricDef struct {
	Name string
	// Better is the direction an improvement moves in.
	Better Direction
	// MachineSensitive metrics (wall clock and friends) are only
	// comparable between runs from the same machine shape; compare skips
	// their relative gates across machines. Counts and ratios stay gated.
	MachineSensitive bool
}

// metricDefs lists the perfbench metrics that are higher-is-better or
// machine-neutral. Every other metric — the per-layer times, peak_rss_mb,
// setup_s — takes the default: lower is better, machine-sensitive. The
// directions match BENCHMARK.json (a compare test checks it).
var metricDefs = map[string]MetricDef{
	"funcs_per_s":                      {Better: HigherIsBetter, MachineSensitive: true},
	"copies_weighted_per_func":         {Better: LowerIsBetter},
	"final_copies_per_func":            {Better: LowerIsBetter},
	"failed_share":                     {Better: LowerIsBetter},
	"core.intersection_tests_per_func": {Better: LowerIsBetter},
	"pipeline.batch_efficiency":        {Better: HigherIsBetter, MachineSensitive: true},
	"core.memo_hit_rate":               {Better: HigherIsBetter},
	"analysis.cache_hit_rate":          {Better: HigherIsBetter},
}

// MetricInfo returns the registry entry for name, or the conservative
// default (lower is better, machine-sensitive) for unknown metrics.
func MetricInfo(name string) MetricDef {
	if d, ok := metricDefs[name]; ok {
		d.Name = name
		return d
	}
	return MetricDef{Name: name, Better: LowerIsBetter, MachineSensitive: true}
}

// Metric is one named sample set of a row; Samples holds one value per
// run.
type Metric struct {
	Name    string    `json:"name"`
	Samples []float64 `json:"samples"`
}

// Median returns the sample median (0 for an empty set).
func (m *Metric) Median() float64 { return Median(m.Samples) }

// Median of a sample set; 0 when empty.
func Median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Row is one measured configuration: a case (the perfbench workload) under
// a variant (untraced or traced) with its metric sample sets.
type Row struct {
	Case    string   `json:"case"`
	Variant string   `json:"variant,omitempty"`
	Metrics []Metric `json:"metrics"`
}

// Metric returns the row's sample set for name, or nil.
func (r *Row) Metric(name string) *Metric {
	for i := range r.Metrics {
		if r.Metrics[i].Name == name {
			return &r.Metrics[i]
		}
	}
	return nil
}

// Report is the versioned envelope: one store entry, one compare operand,
// one store export.
type Report struct {
	Schema     int    `json:"schema"`
	Trajectory string `json:"trajectory"`
	// Count is the repeat count: how many runs contributed samples
	// (single-run reports degrade compare to point comparison).
	Count int   `json:"count"`
	Env   Env   `json:"env"`
	Rows  []Row `json:"rows"`
}

// NewReport assembles an empty envelope with a freshly captured Env.
func NewReport(trajectory string) *Report {
	return &Report{Schema: SchemaVersion, Trajectory: trajectory, Env: CaptureEnv()}
}

// Row returns the (case, variant) row, appending an empty one on first use.
func (rep *Report) Row(case_, variant string) *Row {
	for i := range rep.Rows {
		if rep.Rows[i].Case == case_ && rep.Rows[i].Variant == variant {
			return &rep.Rows[i]
		}
	}
	rep.Rows = append(rep.Rows, Row{Case: case_, Variant: variant})
	return &rep.Rows[len(rep.Rows)-1]
}

// Sample appends one sample to the (case, variant, metric) cell.
func (rep *Report) Sample(case_, variant, metric string, v float64) {
	row := rep.Row(case_, variant)
	if m := row.Metric(metric); m != nil {
		m.Samples = append(m.Samples, v)
		return
	}
	row.Metrics = append(row.Metrics, Metric{Name: metric, Samples: []float64{v}})
}

// WriteJSON writes the envelope as indented JSON.
func (rep *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// ReadReport parses an envelope and validates its schema version.
func ReadReport(r io.Reader) (*Report, error) {
	rep := &Report{}
	if err := json.NewDecoder(r).Decode(rep); err != nil {
		return nil, fmt.Errorf("bench: parsing report envelope: %w", err)
	}
	if rep.Schema < 1 || rep.Schema > SchemaVersion {
		return nil, fmt.Errorf("bench: unsupported report schema %d (supported: 1..%d) — regenerate the report",
			rep.Schema, SchemaVersion)
	}
	if rep.Trajectory == "" {
		return nil, fmt.Errorf("bench: report envelope names no trajectory")
	}
	return rep, nil
}

// ReadReportFile is ReadReport over a file path.
func ReadReportFile(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadReport(f)
}

// FormatReport renders the envelope as the uniform human-readable table:
// one line per row, metrics as name=median (±half-range when the repeat
// count gives a spread).
func FormatReport(rep *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s, count %d — %s, %s", rep.Trajectory, rep.Count, rep.Env.GoVersion, rep.Env.MachineShape())
	if rep.Env.Commit != "" {
		fmt.Fprintf(&b, ", commit %s", rep.Env.Commit)
	}
	b.WriteByte('\n')
	caseW, varW := len("case"), len("variant")
	for i := range rep.Rows {
		caseW = max(caseW, len(rep.Rows[i].Case))
		varW = max(varW, len(rep.Rows[i].Variant))
	}
	fmt.Fprintf(&b, "%-*s  %-*s  metrics\n", caseW, "case", varW, "variant")
	for i := range rep.Rows {
		row := &rep.Rows[i]
		fmt.Fprintf(&b, "%-*s  %-*s ", caseW, row.Case, varW, row.Variant)
		for j := range row.Metrics {
			m := &row.Metrics[j]
			fmt.Fprintf(&b, " %s=%s", m.Name, formatSamples(m.Samples))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// formatSamples renders median±half-range, eliding the spread when the
// samples agree (deterministic metrics) or there is only one.
func formatSamples(samples []float64) string {
	med := Median(samples)
	if len(samples) < 2 {
		return formatNum(med)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range samples {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if lo == hi {
		return formatNum(med)
	}
	return fmt.Sprintf("%s(±%s)", formatNum(med), formatNum((hi-lo)/2))
}

func formatNum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}
