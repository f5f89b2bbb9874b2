package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
)

// PerfbenchTrajectory names the envelopes ImportPerfbench builds.
const PerfbenchTrajectory = "perfbench"

// perfbenchResult is the JSON result line perfbench prints last.
type perfbenchResult struct {
	Correct   *bool `json:"correct"`
	Attempted int   `json:"attempted"`
	Failed    int   `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// ImportPerfbench folds perfbench result lines, one per run (the last line
// of perfbench/run.sh's standard output), into one envelope: case workload,
// one sample per run for each metric, plus failed_share = failed/attempted.
// A line carrying funcs_per_s comes from an end-to-end run (variant
// "untraced"), any other from a traced run ("traced"). Lines that do not
// start with '{', such as perfbench's human-readable table, are skipped, so
// a run's whole output can be piped in. A run that was not correct is
// refused: it is not a measurement.
func ImportPerfbench(r io.Reader, workload string) (*Report, error) {
	if workload == "" {
		return nil, errors.New("bench: importing perfbench results needs a workload name")
	}
	rep := NewReport(PerfbenchTrajectory)
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] != '{' {
			continue
		}
		var res perfbenchResult
		if err := json.Unmarshal(line, &res); err != nil {
			return nil, fmt.Errorf("bench: line %d is not a perfbench result: %w", n, err)
		}
		if res.Correct == nil || len(res.Metrics) == 0 {
			return nil, fmt.Errorf("bench: line %d is not a perfbench result: no correct or metrics field", n)
		}
		if !*res.Correct {
			return nil, fmt.Errorf("bench: line %d is from an incorrect perfbench run (%d of %d operations failed); refusing to store it",
				n, res.Failed, res.Attempted)
		}
		variant := "traced"
		if _, ok := res.Metrics["funcs_per_s"]; ok {
			variant = "untraced"
		}
		for _, name := range slices.Sorted(maps.Keys(res.Metrics)) {
			rep.Sample(workload, variant, name, res.Metrics[name].Value)
		}
		rep.Sample(workload, variant, "failed_share", float64(res.Failed)/float64(max(res.Attempted, 1)))
		rep.Count++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bench: reading perfbench results: %w", err)
	}
	if rep.Count == 0 {
		return nil, errors.New("bench: no perfbench result line in the input")
	}
	return rep, nil
}
