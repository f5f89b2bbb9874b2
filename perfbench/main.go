// Command perfbench is the repository's benchmark: one command that runs a
// named workload against the served system, checks every output with the
// interpreter oracle, and prints every metric by name and unit.
//
//	bash perfbench/run.sh --workload serve-small --seed 1 --seconds 10 --trace 0
//
// run.sh builds this program and cmd/ssad from the checkout into
// .bench_build/ and runs it from the checkout's root. The workloads, the
// metrics and the end-to-end metric each layer metric should move are the
// tables in spec.go; `perfbench -manifest` renders them as BENCHMARK.json.
//
// With --trace 0 the run measures end to end with no tracing: serve
// workloads drive a real ssad child (default flags, loopback) from this one
// process with at most GOMAXPROCS goroutines and connections, first in an
// open loop at the workload's fixed rate and then in a closed loop of
// GOMAXPROCS clients; batch-large calls Translator.TranslateAll in process.
// With --trace 1 a separate run times each layer by calling its exported
// functions from this program (see trace.go). The last line of standard
// output is the JSON result; the program exits non-zero when an output is
// wrong or a validity check fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/outofssa"
	"repro/outofssa/bench"
	"repro/outofssa/serve"
)

// config is one benchmark run.
type config struct {
	w       workloadSpec
	seed    int64
	window  time.Duration
	trace   bool
	ssad    string
	spans   string // directory the traced run writes its spans to
	workers int    // GOMAXPROCS: generator goroutines, connections, batch workers
	start   time.Time
	// setupReps is how many times the run sets up; setup_s is the median.
	setupReps int
	// qualitySize is the size of the quality corpus (see qualitySeed), in
	// newCorpus's units.
	qualitySize int
	// warmupReqs is how many stream positions the warmup sends.
	warmupReqs int
}

// qualitySeed generates the quality corpus: functions of the workload's
// shape that every run translates the way the workload does, after its
// window, for copies_weighted_per_func and final_copies_per_func. It does
// not follow --seed, so the two figures repeat exactly from run to run and
// can carry a tight bound; over per-seed corpora their heavy-tailed
// per-function values spread by 10-20% from seed to seed.
const qualitySeed = 0

// qualitySizes is the quality corpus's size per workload.
var qualitySizes = map[string]int{"serve-small": 1024, "serve-dup": 256, "batch-large": 64}

// defaultWarmup is the warmup length per serve workload, in requests: one
// pass over the stream, so the daemon's memo is full and evicting, as in
// steady service, before timing starts.
var defaultWarmup = map[string]int{"serve-small": smallPool, "serve-dup": dupLag + dupGroups/dupGroupsPerR}

func main() {
	start := time.Now()
	workload := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Int64("seed", 1, "corpus seed")
	seconds := flag.Float64("seconds", runSeconds, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	ssad := flag.String("ssad", ".bench_build/bin/ssad", "ssad daemon binary")
	spans := flag.String("spans", ".bench_out", "directory the traced run writes its spans to")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()
	if *manifest {
		out, err := manifestJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		os.Stdout.Write(out)
		return
	}
	w, ok := workloadByName(*workload)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	cfg := config{
		w: w, seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, ssad: *ssad, spans: *spans,
		workers: runtime.GOMAXPROCS(0), start: start,
		setupReps: 3, qualitySize: qualitySizes[w.Name], warmupReqs: defaultWarmup[w.Name],
	}
	if _, err := os.Stat(cfg.ssad); err != nil && (cfg.trace || w.Name != "batch-large") {
		fmt.Fprintf(os.Stderr, "perfbench: ssad binary: %v (run through perfbench/run.sh, which builds it)\n", err)
		os.Exit(1)
	}
	rep, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

func run(ctx context.Context, cfg config) (*report, error) {
	switch {
	case cfg.trace:
		return runTrace(ctx, cfg)
	case cfg.w.Name == "batch-large":
		return runBatch(ctx, cfg)
	default:
		return runServe(ctx, cfg)
	}
}

// report is one run's result.
type report struct {
	cfg       config
	metrics   map[string]float64
	notes     []string
	attempted int
	failed    int
	wrong     int
	// invalid lists the validity checks the run broke.
	invalid []string
}

func newReport(cfg config) *report {
	return &report{cfg: cfg, metrics: map[string]float64{}}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.invalid = append(r.invalid, fmt.Sprintf(format, args...))
	}
}

func (r *report) correct() bool { return r.wrong == 0 && r.failed == 0 && len(r.invalid) == 0 }

// print writes the human-readable table and, as the last line, the JSON
// result with exactly the metrics of this run's mode.
func (r *report) print(w io.Writer) error {
	specs := endToEnd
	if r.cfg.trace {
		specs = perLayer
	}
	env := bench.CaptureEnv()
	mode := "end to end, untraced"
	if r.cfg.trace {
		mode = "traced, per layer"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d window=%s (%s) on %s\n", r.cfg.w.Name, r.cfg.seed, r.cfg.window, mode, env.MachineShape())
	fmt.Fprintf(w, "  %s\n", r.cfg.w.Why)
	all := specs
	if !r.cfg.trace {
		r.metrics["failed_share"] = float64(r.failed) / float64(max(r.attempted, 1))
		r.metrics["wrong_outputs"] = float64(r.wrong)
		all = append(append([]metricSpec(nil), specs...), printedMetrics...)
	}
	for _, s := range all {
		fmt.Fprintf(w, "  %-34s %14.4f %-7s %s\n", s.Name, r.metrics[s.Name], s.Unit, s.Meaning)
		if s.Moves != "" {
			fmt.Fprintf(w, "  %-57s should move: %s\n", "", s.Moves)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, v := range r.invalid {
		fmt.Fprintf(w, "  INVALID: %s\n", v)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), max(r.attempted, 1), r.failed, map[string]value{}}
	for _, s := range specs {
		v, ok := r.metrics[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured (%v)", s.Name, v)
		}
		out.Metrics[s.Name] = value{v, s.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// setUp runs set-up cfg.setupReps times and returns the last result and the
// median set-up time; earlier results are released with teardown.
func setUp[T any](cfg config, once func() (T, error), teardown func(T) error) (T, float64, error) {
	var times []float64
	var env T
	for i := range cfg.setupReps {
		t0 := time.Now()
		if i == 0 {
			t0 = cfg.start
		}
		e, err := once()
		if err != nil {
			return env, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < cfg.setupReps-1 {
			if err := teardown(e); err != nil {
				return env, 0, err
			}
			continue
		}
		env = e
	}
	return env, median(times), nil
}

// serveEnv is a set-up serve workload: corpus, daemon, warmed stream.
type serveEnv struct {
	c     *corpus
	d     *daemon
	sh    *shooter
	warm  []outcome
	nextS int // next stream position
}

func setUpServe(ctx context.Context, cfg config, warmup int) (*serveEnv, error) {
	c, err := newCorpus(cfg.w.Name, cfg.seed, cfg.workers, 0)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(cfg.ssad, cfg.workers)
	if err != nil {
		return nil, err
	}
	// The daemon gets text; dropping the generated functions keeps this
	// process's heap small, so its collections take little CPU from the
	// daemon on a small machine.
	c.funcs = nil
	e := &serveEnv{c: c, d: d, sh: &shooter{d: d, c: c}}
	if c.batch {
		e.sh.lag = newLagTracker()
	}
	if warmup > 0 {
		e.warm, _ = closedLoop(cfg.workers, 0, warmup, 0, func(epoch time.Time, seq int, o *outcome) {
			e.sh.shoot(ctx, epoch, seq, o)
		})
		for i := range e.warm {
			if err := e.warm[i].err; err != nil {
				d.stop()
				return nil, fmt.Errorf("warmup request %d: %w", e.warm[i].seq, err)
			}
		}
	}
	e.nextS = warmup
	return e, nil
}

func runServe(ctx context.Context, cfg config) (*report, error) {
	rep := newReport(cfg)
	env, setup, err := setUp(cfg, func() (*serveEnv, error) { return setUpServe(ctx, cfg, cfg.warmupReqs) },
		func(e *serveEnv) error { return e.d.stop() })
	if err != nil {
		return nil, err
	}
	rep.metrics["setup_s"] = setup
	rep.note("setup_s is the median of %d set-ups; building the binaries is excluded", cfg.setupReps)
	d := env.d
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()

	before, err := d.stats(ctx)
	if err != nil {
		return nil, err
	}
	stolen := stolenShare()
	shoot := func(epoch time.Time, seq int, o *outcome) { env.sh.shoot(ctx, epoch, seq, o) }
	// The open loop gets the larger share: its tail needs the samples.
	openLen := cfg.window * 3 / 5
	open := openLoop(cfg.workers, cfg.w.Rate, openLen, env.nextS, shoot)
	self0, daemon0 := cpuSeconds(os.Getpid()), cpuSeconds(d.cmd.Process.Pid)
	closed, closedWall := closedLoop(cfg.workers, cfg.window-openLen, 0, env.nextS+len(open), shoot)
	rep.note("closed loop CPU: this process %.2f s, ssad %.2f s", cpuSeconds(os.Getpid())-self0, cpuSeconds(d.cmd.Process.Pid)-daemon0)
	rep.note("machine: %.1f%% of CPU time was stolen by the hypervisor during the window", 100*stolen())
	after, err := d.stats(ctx)
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	qc, qouts, err := serveQuality(ctx, cfg, d)
	if err != nil {
		return nil, err
	}
	stopped = true
	if err := d.stop(); err != nil {
		return nil, err
	}

	wrong, nWrong := checkOutputs(env.c, [][]outcome{env.warm, open, closed}, cfg.workers)
	rep.wrong = nWrong
	noted := 0
	for _, ph := range [][]outcome{env.warm, open, closed} {
		for i := range ph {
			if ph[i].failed(wrong) && noted < 5 {
				noted++
				rep.note("failed request %d: %s", ph[i].seq, failure(&ph[i]))
			}
		}
	}

	// Latency: the open loop, from each request's due time; a failed
	// request counts as missing the p99 limit.
	var lat []float64
	var due []time.Duration
	for i := range open {
		o := &open[i]
		rep.attempted++
		due = append(due, o.due)
		if o.failed(wrong) {
			rep.failed++
			lat = append(lat, math.Inf(1))
			continue
		}
		lat = append(lat, ms(o.done-o.due))
	}
	latencies(rep, due, lat, openLen)
	rep.note("open loop: %d requests at %.0f/s over %s", len(open), cfg.w.Rate, openLen)
	lateness(rep, open)

	// Throughput: the closed loop.
	funcs := 0
	var at []time.Duration
	var done []int
	for i := range closed {
		o := &closed[i]
		rep.attempted++
		if o.failed(wrong) {
			rep.failed++
			continue
		}
		funcs += len(o.results)
		at, done = append(at, o.done), append(done, len(o.results))
	}
	rep.metrics["funcs_per_s"] = sliceRate(at, done, cfg.window-openLen)
	rep.note("closed loop: %d clients, %d requests, %d functions in %s; funcs_per_s is the median over its 1 s slices",
		cfg.workers, len(closed), funcs, closedWall.Round(time.Millisecond))

	if err := quality(rep, qc, qouts); err != nil {
		return nil, err
	}
	rep.metrics["peak_rss_mb"] = rss
	rep.note("peak_rss_mb is the ssad child's VmHWM")

	memoBand(rep, env.c, before, after, open, closed)
	return rep, nil
}

// lateness reports how late the open-loop generator sent its requests,
// sorted, and checks that it kept its schedule: a run whose requests due in
// the phase's last second went out later, at the median, than the
// workload's p99 limit ended with a backlog it had not drained, and is
// invalid. A stall the generator recovers from counts in latency, not here.
func lateness(rep *report, outs []outcome) []float64 {
	if len(outs) == 0 {
		rep.check(false, "the open loop sent no requests")
		return nil
	}
	var late, tail []float64
	end := outs[len(outs)-1].due // outcomes are in due order
	for i := range outs {
		l := ms(outs[i].sent - outs[i].due)
		late = append(late, l)
		if end-outs[i].due < time.Second {
			tail = append(tail, l)
		}
	}
	sort.Float64s(late)
	sort.Float64s(tail)
	final, limit := quantile(tail, 0.5), rep.cfg.w.P99LimitMs
	rep.note("open-loop generator lateness: p50 %.3f ms, p99 %.3f ms, median over the last second %.3f ms (limit %.0f ms)",
		quantile(late, 0.5), quantile(late, 0.99), final, limit)
	rep.check(final <= limit, "open-loop generator ended %.2f ms behind schedule, beyond %.0f ms", final, limit)
	return late
}

// memoBand checks that the memo's hit rate over the window stays in the
// workload's designed band: about 0 on serve-small, the near-duplicate
// design share on serve-dup.
func memoBand(rep *report, c *corpus, before, after *serve.StatsResponse, phases ...[]outcome) {
	if before.Memo == nil || after.Memo == nil {
		rep.check(false, "daemon reports no memo (the default config has one)")
		return
	}
	hits := after.Memo.Hits - before.Memo.Hits
	misses := after.Memo.Misses - before.Memo.Misses
	evictions := after.Memo.Evictions - before.Memo.Evictions
	rate := float64(hits) / float64(max(hits+misses, 1))
	designed, total := 0, 0
	for _, ph := range phases {
		for i := range ph {
			r := &c.reqs[c.reqIndex(ph[i].seq)]
			if ph[i].seq >= c.warm {
				designed += r.designedHits
			}
			total += len(r.fns)
		}
	}
	want := float64(designed) / float64(max(total, 1))
	rep.note("memo over the window: %d hits, %d misses, %d evictions; hit rate %.4f, designed %.4f", hits, misses, evictions, rate, want)
	rep.check(math.Abs(rate-want) <= 0.02, "memo hit rate %.4f left the designed band %.4f ± 0.02", rate, want)
}

// serveQuality sends the quality corpus's stream to the daemon once, from
// cfg.workers closed-loop clients.
func serveQuality(ctx context.Context, cfg config, d *daemon) (*corpus, []outcome, error) {
	qc, err := newCorpus(cfg.w.Name, qualitySeed, cfg.workers, cfg.qualitySize)
	if err != nil {
		return nil, nil, err
	}
	sh := &shooter{d: d, c: qc}
	if qc.batch {
		sh.lag = newLagTracker()
	}
	outs, _ := closedLoop(cfg.workers, 0, len(qc.reqs), 0, func(epoch time.Time, seq int, o *outcome) {
		sh.shoot(ctx, epoch, seq, o)
	})
	return qc, outs, nil
}

// quality checks the quality corpus's outputs with the oracle, counting
// them as attempted operations, and computes the copy metrics over its
// functions from the first result returned for each.
func quality(rep *report, qc *corpus, outs []outcome) error {
	wrong, nWrong := checkOutputs(qc, [][]outcome{outs}, rep.cfg.workers)
	rep.wrong += nWrong
	for i := range outs {
		rep.attempted++
		if outs[i].failed(wrong) {
			rep.failed++
			rep.note("failed quality-corpus operation %d: %s", outs[i].seq, failure(&outs[i]))
		}
	}
	n := len(qc.sources)
	got := make([]*core.Stats, n)
	for i := range outs {
		for _, r := range outs[i].results {
			if got[r.fn] == nil {
				got[r.fn] = r.stats
			}
		}
	}
	var weight, copies float64
	for fn, st := range got {
		if st == nil {
			return fmt.Errorf("quality set: corpus function %d was never returned with stats", fn)
		}
		weight += st.RemainingWeight
		copies += float64(st.FinalCopies)
	}
	rep.metrics["copies_weighted_per_func"] = weight / float64(n)
	rep.metrics["final_copies_per_func"] = copies / float64(n)
	rep.note("copy metrics: over the %d functions of the quality corpus (seed %d, not --seed), translated after the window", n, qualitySeed)
	return nil
}

// batchEnv is a set-up batch-large workload.
type batchEnv struct {
	c  *corpus
	tr *outofssa.Translator
}

func runBatch(ctx context.Context, cfg config) (*report, error) {
	rep := newReport(cfg)
	n := largeBatch
	env, setup, err := setUp(cfg, func() (*batchEnv, error) {
		c, err := newCorpus(cfg.w.Name, cfg.seed, cfg.workers, 0)
		if err != nil {
			return nil, err
		}
		tr, err := outofssa.New(outofssa.WithWorkers(cfg.workers))
		if err != nil {
			return nil, err
		}
		if _, err := tr.TranslateAll(ctx, cloneBatch(c, 0, n)); err != nil {
			return nil, fmt.Errorf("warmup: %w", err)
		}
		return &batchEnv{c, tr}, nil
	}, func(*batchEnv) error {
		// Return the discarded set-up's heap to the system, so that
		// peak_rss_mb counts one corpus, not one per set-up.
		debug.FreeOSMemory()
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.metrics["setup_s"] = setup
	rep.note("setup_s is the median of %d set-ups; building the binary is excluded", cfg.setupReps)

	// One caller, back to back. Each call's latency is its TranslateAll
	// wall time; outputs are printed for the oracle outside that time, the
	// first time each corpus function is translated.
	var calls []outcome
	seen := map[int]bool{}
	stolen := stolenShare()
	epoch := time.Now()
	for k := 0; time.Since(epoch) < cfg.window; k++ {
		in := cloneBatch(env.c, k, n)
		o := outcome{seq: k}
		t0 := time.Now()
		res, err := env.tr.TranslateAll(ctx, in)
		o.done = time.Since(t0)
		o.err = err
		for j, r := range res.Results {
			fn := (k*n + j) % len(env.c.funcs)
			if r.Err == nil && !seen[fn] {
				seen[fn] = true
				o.results = append(o.results, fnOutput{fn, r.Func.String(), r.Stats})
			}
		}
		calls = append(calls, o)
	}
	rep.note("machine: %.1f%% of CPU time was stolen by the hypervisor during the window", 100*stolen())
	wrong, nWrong := checkOutputs(env.c, [][]outcome{calls}, cfg.workers)
	rep.wrong = nWrong
	// Throughput: consecutive calls are grouped into runs of at least one
	// second of call time; funcs_per_s is the median of their rates.
	var lat, rates []float64
	var started []time.Duration
	var elapsed, groupTime time.Duration
	groupFuncs := 0
	for i := range calls {
		started = append(started, elapsed)
		elapsed += calls[i].done
		rep.attempted++
		if calls[i].failed(wrong) {
			rep.failed++
			lat = append(lat, math.Inf(1))
			if rep.failed <= 5 {
				rep.note("failed call %d: %s", calls[i].seq, failure(&calls[i]))
			}
			continue
		}
		lat = append(lat, ms(calls[i].done))
		groupFuncs += n
		groupTime += calls[i].done
		if groupTime >= time.Second {
			rates = append(rates, float64(groupFuncs)/groupTime.Seconds())
			groupFuncs, groupTime = 0, 0
		}
	}
	if len(rates) == 0 {
		rates = append(rates, float64(groupFuncs)/groupTime.Seconds())
	}
	latencies(rep, started, lat, elapsed)
	rep.metrics["funcs_per_s"] = median(rates)
	rep.note("%d TranslateAll calls of %d functions on %d workers; funcs_per_s is the median over %d runs of >= 1 s of call time",
		len(calls), n, cfg.workers, len(rates))
	rss, err := vmHWM(os.Getpid())
	if err != nil {
		return nil, err
	}
	qc, err := newCorpus(cfg.w.Name, qualitySeed, cfg.workers, cfg.qualitySize)
	if err != nil {
		return nil, err
	}
	q := outcome{}
	res, err := env.tr.TranslateAll(ctx, cloneBatch(qc, 0, len(qc.funcs)))
	q.err = err
	for j, r := range res.Results {
		if r.Err == nil {
			q.results = append(q.results, fnOutput{j, r.Func.String(), r.Stats})
		}
	}
	if err := quality(rep, qc, []outcome{q}); err != nil {
		return nil, err
	}
	rep.metrics["peak_rss_mb"] = rss
	rep.note("peak_rss_mb is this process's VmHWM, the %d-function corpus included", len(env.c.funcs))
	return rep, nil
}

// latencies sets latency_p50_ms, latency_p90_ms and latency_p99_ms: the median, over the
// phase's whole one-second slices, of each slice's quantile. at places each
// sample in a slice. A median over slices keeps one stall of a shared
// machine from moving the figure; the whole-phase quantiles are noted.
func latencies(rep *report, at []time.Duration, lat []float64, length time.Duration) {
	n := max(int(length/time.Second), 1)
	slices := make([][]float64, n)
	for i, t := range at {
		s := min(int(t/time.Second), n-1)
		slices[s] = append(slices[s], lat[i])
	}
	var p50, p90, p99 []float64
	for _, v := range slices {
		if len(v) > 0 {
			sort.Float64s(v)
			p50, p90, p99 = append(p50, quantile(v, 0.50)), append(p90, quantile(v, 0.90)), append(p99, quantile(v, 0.99))
		}
	}
	rep.metrics["latency_p50_ms"] = median(p50)
	rep.metrics["latency_p90_ms"] = median(p90)
	rep.metrics["latency_p99_ms"] = median(p99)
	all := append([]float64(nil), lat...)
	sort.Float64s(all)
	limit := rep.cfg.w.P99LimitMs
	rep.note("latency: %d samples in %d slices; whole-phase p50 %.3f ms, p99 %.3f ms, %d samples beyond it; p99 limit %.0f ms (%s)",
		len(all), len(p50), quantile(all, 0.5), quantile(all, 0.99), len(all)-int(math.Ceil(0.99*float64(len(all)))), limit,
		map[bool]string{true: "met", false: "missed"}[quantile(all, 0.99) <= limit])
}

// sliceRate is the median completion rate over the whole one-second slices
// of a phase of the given length; at and funcs are the completion times
// and the functions each completion carried. A median over slices keeps a
// short stall of a shared machine from moving the figure.
func sliceRate(at []time.Duration, funcs []int, length time.Duration) float64 {
	n := int(length / time.Second)
	if n < 1 {
		total := 0
		for _, f := range funcs {
			total += f
		}
		return float64(total) / length.Seconds()
	}
	rates := make([]float64, n)
	for i, t := range at {
		if s := int(t / time.Second); s < n {
			rates[s] += float64(funcs[i])
		}
	}

	return median(rates)
}

// failure describes why a failed operation failed.
func failure(o *outcome) string {
	if o.err != nil {
		return o.err.Error()
	}
	return "wrong output (interpreter oracle)"
}

// cloneBatch clones the k-th batch of n corpus functions, cycling the corpus.
func cloneBatch(c *corpus, k, n int) []*ir.Func {
	out := make([]*ir.Func, n)
	for j := range out {
		out[j] = ir.Clone(c.funcs[(k*n+j)%len(c.funcs)])
	}
	return out
}
