package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/outofssa"
	"repro/outofssa/serve"
)

// The traced run (--trace 1) times each layer by calling its exported
// functions from this file, with no tracing inside the program. It has
// three phases:
//
//   - replay: a sample of the workload's requests goes, in process and in
//     stream order, through (*serve.Server).ServeHTTP and, separately,
//     through the same layers called one by one (body read, decode, parse,
//     fingerprint, the façade's pass list via pipeline.Apply, print,
//     encode), each wrapped in a span. The per-pass output must be
//     byte-identical to the handler's. Rounds with the collector on give
//     the runtime metrics; untraced and traced rounds in turn, with it off,
//     give the layer times and the tracing overhead.
//   - daemon: a fresh ssad serves an open loop of the workload's stream at
//     its rate; /v1/stats before and after give the daemon-side figures,
//     the client the transport and first-item times.
//   - batch: sequential Translate against TranslateAll on the workload's
//     functions gives the batch driver's efficiency.
//
// Layers a workload's served path does not run (memo hits on serve-small
// and batch-large, register allocation outside serve-dup) are measured by
// a probe on the workload's functions, and the run says so.

// Sample sizes of the replay and batch phases, per workload.
var (
	replayReqs = map[string]int{"serve-small": 256, "serve-dup": 48, "batch-large": 6}
	batchFuncs = map[string]int{"serve-small": 256, "serve-dup": 256, "batch-large": 8}
)

const (
	probeFuncs  = 16
	batchRounds = 3
)

// span is one timed interval. Parent indexes the recorder's spans (-1 for a
// root); spans of one request share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is the untraced replay.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func (r *recorder) begin(name string, parent, req int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.epoch)), Parent: parent, Req: req})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans[id].End = int64(time.Since(r.epoch))
	r.mu.Unlock()
}

func (r *recorder) rename(id int, name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans[id].Name = name
	r.mu.Unlock()
}

// add records a span whose times were taken elsewhere.
func (r *recorder) add(name string, start, end time.Time, parent, req int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name, int64(start.Sub(r.epoch)), int64(end.Sub(r.epoch)), parent, req})
	return len(r.spans) - 1
}

// layerTime is the summed self time of one span name.
type layerTime struct {
	total time.Duration
	count int
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its children cover, over the spans whose root is named root.
func (r *recorder) selfTimes(root string) map[string]layerTime {
	children := map[int][][2]int64{}
	rootName := make([]string, len(r.spans))
	for i, s := range r.spans {
		if s.Parent < 0 {
			rootName[i] = s.Name
			continue
		}
		rootName[i] = rootName[s.Parent]
		children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
	}
	out := map[string]layerTime{}
	for i, s := range r.spans {
		if rootName[i] != root {
			continue
		}
		iv := children[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, reach int64 = 0, s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		lt := out[s.Name]
		lt.total += time.Duration(s.End - s.Start - covered)
		lt.count++
		out[s.Name] = lt
	}
	return out
}

func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wireReq is one replayed request.
type wireReq struct {
	path string
	body []byte
	fns  []int
}

// replayStats is what one replay pass measured besides its spans.
type replayStats struct {
	componentWall, handlerWall time.Duration
	reqs, funcs, hits, misses  int
	intersections              int
	cacheHits, cacheMisses     uint64
	handlerAllocBytes          uint64
}

func (a *replayStats) add(b *replayStats) {
	a.componentWall += b.componentWall
	a.handlerWall += b.handlerWall
	a.reqs += b.reqs
	a.funcs += b.funcs
	a.hits += b.hits
	a.misses += b.misses
	a.intersections += b.intersections
	a.cacheHits += b.cacheHits
	a.cacheMisses += b.cacheMisses
	a.handlerAllocBytes += b.handlerAllocBytes
}

// facadePasses is the pass list the façade builds for a served request:
// VerifySSA, the four out-of-SSA passes over the memo, then RegAlloc when
// registers are requested.
func facadePasses(memo *core.Memo, pool []string) []pipeline.Pass {
	passes := append([]pipeline.Pass{pipeline.VerifySSA()}, pipeline.OutOfSSAWithMemo(outofssa.DefaultOptions(), memo)...)
	if len(pool) > 0 {
		passes = append(passes, pipeline.RegAlloc(pool))
	}
	return passes
}

var outOfSSANames = []string{"core.analyze", "core.coalesce", "core.rewrite"}

// replay runs every request through the in-process handler and through
// the layers one by one, with fresh memos on both sides so they see the
// same sequence. rec == nil is the untraced pass.
func replay(reqs []wireReq, pool []string, rec *recorder) (*replayStats, error) {
	srv := serve.New(serve.Config{BatchWorkers: 1})
	memo := core.NewMemo(0, 0)
	st := &replayStats{}
	alloc := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	for k, rq := range reqs {
		// Alternate which side goes first, so neither always finds the
		// request's bytes in cache.
		var served, outs []string
		var herr, cerr error
		if k%2 == 0 {
			served, herr = handle(srv, rq, rec, k, st, alloc)
			outs, cerr = componentsTimed(rq, memo, pool, rec, k, st)
		} else {
			outs, cerr = componentsTimed(rq, memo, pool, rec, k, st)
			served, herr = handle(srv, rq, rec, k, st, alloc)
		}
		if herr != nil {
			return nil, herr
		}
		if cerr != nil {
			return nil, cerr
		}
		for i := range outs {
			if outs[i] != served[i] {
				return nil, fmt.Errorf("request %d function %d: per-pass output differs from the served output", k, i)
			}
		}
		st.reqs++
		st.funcs += len(rq.fns)
	}
	return st, nil
}

// handle serves one request with the in-process handler, timed as the
// root span serve.handler.
func handle(srv *serve.Server, rq wireReq, rec *recorder, k int, st *replayStats, alloc []metrics.Sample) ([]string, error) {
	hreq := httptest.NewRequest(http.MethodPost, rq.path, bytes.NewReader(rq.body))
	hreq.Header.Set("Content-Type", "application/json")
	hw := httptest.NewRecorder()
	metrics.Read(alloc)
	a0 := alloc[0].Value.Uint64()
	h := rec.begin("serve.handler", -1, k)
	t0 := time.Now()
	srv.ServeHTTP(hw, hreq)
	st.handlerWall += time.Since(t0)
	rec.end(h)
	metrics.Read(alloc)
	st.handlerAllocBytes += alloc[0].Value.Uint64() - a0
	return servedOutputs(rq, hw)
}

// componentsTimed runs components under the root span replay.request.
func componentsTimed(rq wireReq, memo *core.Memo, pool []string, rec *recorder, k int, st *replayStats) ([]string, error) {
	t0 := time.Now()
	root := rec.begin("replay.request", -1, k)
	outs, err := components(rq, memo, pool, rec, root, k, st)
	rec.end(root)
	st.componentWall += time.Since(t0)
	return outs, err
}

// servedOutputs extracts the translated functions of a recorded response,
// in source order.
func servedOutputs(rq wireReq, hw *httptest.ResponseRecorder) ([]string, error) {
	if hw.Code != http.StatusOK {
		return nil, fmt.Errorf("in-process %s: status %d: %s", rq.path, hw.Code, strings.TrimSpace(hw.Body.String()))
	}
	outs := make([]string, len(rq.fns))
	if rq.path == "/v1/translate" {
		var tr serve.TranslateResponse
		if err := json.Unmarshal(hw.Body.Bytes(), &tr); err != nil {
			return nil, err
		}
		outs[0] = tr.Output
		return outs, nil
	}
	for _, line := range bytes.Split(bytes.TrimSpace(hw.Body.Bytes()), []byte("\n")) {
		if bytes.HasPrefix(line, []byte(`{"done"`)) {
			continue
		}
		var it serve.BatchItem
		if err := json.Unmarshal(line, &it); err != nil {
			return nil, err
		}
		if it.Error != "" || it.Index < 0 || it.Index >= len(outs) {
			return nil, fmt.Errorf("in-process batch item %d: %q", it.Index, it.Error)
		}
		outs[it.Index] = it.Output
	}
	return outs, nil
}

// components performs the handler's work layer by layer, as the handler
// does it: decode, parse, then per function the fingerprint, the façade's
// passes, print and the response encoding.
func components(rq wireReq, memo *core.Memo, pool []string, rec *recorder, root, k int, st *replayStats) ([]string, error) {
	s := rec.begin("serve.read", root, k)
	body, err := io.ReadAll(bytes.NewReader(rq.body))
	rec.end(s)
	if err != nil {
		return nil, err
	}
	s = rec.begin("serve.decode", root, k)
	var req serve.TranslateRequest
	err = json.Unmarshal(body, &req)
	rec.end(s)
	if err != nil {
		return nil, err
	}
	// The façade builds its pass list per call, the handler per request.
	s = rec.begin("pipeline.build", root, k)
	passes := facadePasses(memo, pool)
	rec.end(s)
	s = rec.begin("ir.parse", root, k)
	fns, err := ir.ParseAll(req.Source)
	rec.end(s)
	if err != nil {
		return nil, err
	}
	if len(fns) != len(rq.fns) {
		return nil, fmt.Errorf("request %d parsed into %d functions, want %d", k, len(fns), len(rq.fns))
	}
	batch := rq.path == "/v1/batch"
	var sc *core.Scratch
	if batch {
		// The batch driver gives each worker a pooled scratch for the
		// whole batch; the handler runs batches on one worker here.
		sc = core.GetScratch()
		defer core.PutScratch(sc)
	}
	var buf bytes.Buffer
	var agg core.Stats
	outs := make([]string, len(fns))
	apply := func(name string, pctx *pipeline.Context, p pipeline.Pass) (int, error) {
		s := rec.begin(name, root, k)
		err := pipeline.Apply(pctx, p)
		return s, err
	}
	for i, f := range fns {
		s = rec.begin("ir.fingerprint", root, k)
		f.Fingerprint()
		rec.end(s)
		s = rec.begin("pipeline.build", root, k)
		pctx := pipeline.NewContext(f)
		if sc != nil {
			pctx.Cache.SetLivenessScratch(sc.LivenessScratch())
			pctx.Scratch = sc
		}
		rec.end(s)
		s, err := apply("pipeline.verify_ssa", pctx, passes[0])
		rec.end(s)
		if err != nil {
			return nil, err
		}
		s, err = apply("core.insert", pctx, passes[1])
		if err != nil {
			return nil, err
		}
		if pctx.MemoHit {
			// A hit turns the remaining three passes into no-ops; they
			// belong to the hit's span.
			rec.rename(s, "core.memo_hit")
			for _, p := range passes[2:5] {
				if err := pipeline.Apply(pctx, p); err != nil {
					return nil, err
				}
			}
			rec.end(s)
			st.hits++
		} else {
			rec.end(s)
			for j, name := range outOfSSANames {
				s, err := apply(name, pctx, passes[2+j])
				rec.end(s)
				if err != nil {
					return nil, err
				}
			}
			st.misses++
			st.intersections += pctx.Stats.IntersectionTests
		}
		if len(passes) > 5 {
			s, err := apply("regalloc.alloc", pctx, passes[5])
			rec.end(s)
			if err != nil {
				return nil, err
			}
		}
		pctx.Scratch = nil
		pctx.Cache.SetLivenessScratch(nil)
		for kind := range pctx.Cache.Hits {
			st.cacheHits += pctx.Cache.Hits[kind]
			st.cacheMisses += pctx.Cache.Misses[kind]
		}
		s = rec.begin("ir.print", root, k)
		outs[i] = f.String()
		rec.end(s)
		s = rec.begin("serve.encode", root, k)
		if batch {
			err = json.NewEncoder(&buf).Encode(&serve.BatchItem{Index: i, Name: f.Name, Output: outs[i], Stats: pctx.Stats})
			agg.Accumulate(pctx.Stats)
		} else {
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			resp := &serve.TranslateResponse{Name: f.Name, Output: outs[i], Stats: pctx.Stats, MemoHit: pctx.MemoHit}
			if pctx.Alloc != nil {
				resp.RegsUsed, resp.Spills = pctx.Alloc.RegsUsed, pctx.Alloc.Spills
			}
			err = enc.Encode(resp)
		}
		rec.end(s)
		if err != nil {
			return nil, err
		}
	}
	if batch {
		s = rec.begin("serve.encode", root, k)
		err = json.NewEncoder(&buf).Encode(&serve.BatchSummary{Done: true, Funcs: len(fns), OK: len(fns), Stats: &agg})
		rec.end(s)
	}
	return outs, err
}

// componentSpans are the replay spans that partition the handler's work.
var componentSpans = []string{
	"serve.read", "serve.decode", "pipeline.build", "ir.parse", "ir.fingerprint", "pipeline.verify_ssa",
	"core.insert", "core.analyze", "core.coalesce", "core.rewrite", "core.memo_hit",
	"regalloc.alloc", "ir.print", "serve.encode",
}

func runTrace(ctx context.Context, cfg config) (*report, error) {
	rep := newReport(cfg)
	c, err := newCorpus(cfg.w.Name, cfg.seed, cfg.workers, 0)
	if err != nil {
		return nil, err
	}
	var pool []string
	if c.batch {
		for i := range dupRegisters {
			pool = append(pool, fmt.Sprintf("r%d", i))
		}
	}
	if c.reqs == nil {
		// batch-large has no stream of its own; the replay and the daemon
		// phase send its functions one per /v1/translate request.
		for i, src := range c.sources {
			body, err := json.Marshal(serve.TranslateRequest{Source: src})
			if err != nil {
				return nil, err
			}
			c.reqs = append(c.reqs, request{body: body, fns: []int{i}})
		}
	}
	path := "/v1/translate"
	if c.batch {
		path = "/v1/batch"
	}
	var reqs []wireReq
	for s := range replayReqs[cfg.w.Name] {
		r := c.reqs[c.reqIndex(s)]
		reqs = append(reqs, wireReq{path, r.body, r.fns})
	}

	// Replay in rounds: a warm-up; rounds with the collector on, for the
	// runtime metrics; then untraced and traced rounds in turn, each with
	// the collector off, so that a collection cannot land on one layer's
	// span rather than another's and tracing is the only difference
	// between the two.
	if _, err := replay(reqs, pool, nil); err != nil {
		return nil, err
	}
	if err := runtimeMetrics(reqs, pool, cfg.window/4, rep); err != nil {
		return nil, err
	}
	var plain, traced replayStats
	rec := &recorder{epoch: time.Now()}
	until := time.Now().Add(cfg.window / 4)
	for round := 0; round < 2 || time.Now().Before(until); round++ {
		r := rec
		if round%2 == 0 {
			r = nil
		}
		err := withoutGC(func() error {
			st, err := replay(reqs, pool, r)
			if err != nil {
				return err
			}
			if r == nil {
				plain.add(st)
			} else {
				traced.add(st)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	rep.metrics["trace.overhead_share"] = (traced.componentWall.Seconds()/float64(traced.reqs))/(plain.componentWall.Seconds()/float64(plain.reqs)) - 1
	rep.note("replay: %d requests, %d functions (%d memo misses, %d hits), in process; per-pass output byte-identical to the handler's",
		traced.reqs, traced.funcs, traced.misses, traced.hits)

	layers := rec.selfTimes("replay.request")
	perFunc := func(name string) float64 {
		return float64(layers[name].total.Nanoseconds()) / 1e3 / float64(traced.funcs)
	}
	perSpan := func(lt layerTime) float64 { return float64(lt.total.Nanoseconds()) / 1e3 / float64(lt.count) }
	handler := float64(traced.handlerWall.Nanoseconds()) / 1e3 / float64(traced.funcs)
	var covered float64
	for _, name := range componentSpans {
		covered += perFunc(name)
	}
	rep.metrics["serve.handler_us"] = handler
	rep.metrics["serve.handler_residual_us"] = handler - covered
	rep.check(covered >= 0.9*handler, "component spans cover %.1f%% of serve.handler_us, below 90%%", 100*covered/handler)
	rep.note("component spans cover %.1f%% of the handler time", 100*covered/handler)
	for _, name := range []string{"serve.read", "serve.decode", "serve.encode", "ir.parse", "ir.print", "ir.fingerprint", "pipeline.verify_ssa"} {
		rep.metrics[name+"_us"] = perFunc(name)
	}
	for _, name := range []string{"core.insert", "core.analyze", "core.coalesce", "core.rewrite"} {
		rep.metrics[name+"_us"] = float64(layers[name].total.Nanoseconds()) / 1e3 / float64(max(traced.misses, 1))
	}
	rep.metrics["core.intersection_tests_per_func"] = float64(traced.intersections) / float64(max(traced.misses, 1))
	rep.metrics["analysis.cache_hit_rate"] = float64(traced.cacheHits) / float64(max(traced.cacheHits+traced.cacheMisses, 1))

	wire := perFunc("serve.read") + perFunc("serve.decode") + perFunc("ir.parse") + perFunc("ir.print") + perFunc("serve.encode") + (handler - covered)
	rep.note("wire layers (read, decode, parse, print, encode, residual) are %.1f%% of handler time", 100*wire/handler)
	passTime := perFunc("pipeline.verify_ssa") + perFunc("core.insert") + perFunc("core.analyze") + perFunc("core.coalesce") + perFunc("core.rewrite")
	rep.note("core.coalesce is %.1f%% of pass time (verify + the four out-of-SSA passes)", 100*perFunc("core.coalesce")/passTime)

	// Probes for layers the served path skipped.
	if err := probes(c, reqs, pool, rec); err != nil {
		return nil, err
	}
	hit := layers["core.memo_hit"]
	if hit.count == 0 {
		hit = rec.selfTimes("probe.memo_hit")["core.memo_hit"]
		rep.note("core.memo_hit_us: probe (%d re-submitted functions); the stream has no hits", hit.count)
	}
	rep.metrics["core.memo_hit_us"] = perSpan(hit)
	ra := layers["regalloc.alloc"]
	if ra.count == 0 {
		ra = rec.selfTimes("probe.regalloc")["regalloc.alloc"]
		rep.note("regalloc.alloc_us: probe (%d functions, pool R0..R%d); the workload requests no registers", ra.count, dupRegisters-1)
	}
	rep.metrics["regalloc.alloc_us"] = perSpan(ra)

	if err := daemonPhase(ctx, cfg, c, rec, rep, perFunc("serve.read")+perFunc("serve.decode")+perFunc("ir.parse")); err != nil {
		return nil, err
	}
	if err := batchPhase(ctx, cfg, c, pool, rep); err != nil {
		return nil, err
	}
	out := filepath.Join(cfg.spans, fmt.Sprintf("spans-%s-%d.ndjson", cfg.w.Name, cfg.seed))
	if err := rec.write(out); err != nil {
		return nil, err
	}
	rep.note("%d spans written to %s", len(rec.spans), out)
	return rep, nil
}

// runtimeMetrics replays with the collector on for at least d and reads
// the collector's CPU share and the handler's allocation per function. The
// runtime updates its CPU classes when a collection ends, so the window
// runs from one forced collection to another.
func runtimeMetrics(reqs []wireReq, pool []string, d time.Duration, rep *report) error {
	cpu := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	read := func() (gc, busy float64) {
		runtime.GC()
		metrics.Read(cpu)
		return cpu[0].Value.Float64(), cpu[1].Value.Float64() - cpu[2].Value.Float64()
	}
	gc0, busy0 := read()
	var st replayStats
	until := time.Now().Add(d)
	for st.reqs == 0 || time.Now().Before(until) {
		r, err := replay(reqs, pool, nil)
		if err != nil {
			return err
		}
		st.add(r)
	}
	gc1, busy1 := read()
	rep.metrics["runtime.gc_cpu_share"] = (gc1 - gc0) / (busy1 - busy0)
	rep.metrics["runtime.alloc_bytes_per_func"] = float64(st.handlerAllocBytes) / float64(st.funcs)
	return nil
}

// withoutGC runs f with the garbage collector off, from and back to a
// collected heap.
func withoutGC(f func() error) error {
	runtime.GC()
	old := debug.SetGCPercent(-1)
	defer func() {
		debug.SetGCPercent(old)
		runtime.GC()
	}()
	return f()
}

// probes time the memo-hit path and register allocation on the workload's
// functions when its served path does not run them.
func probes(c *corpus, reqs []wireReq, pool []string, rec *recorder) error {
	var fns []int
	for _, r := range reqs {
		fns = append(fns, r.fns...)
	}
	fns = fns[:min(len(fns), probeFuncs)]
	memo := core.NewMemo(0, 0)
	passes := facadePasses(memo, nil)
	parse := func(fn int) (*ir.Func, error) { return ir.Parse(c.sources[fn]) }
	for _, fn := range fns { // fill the memo
		f, err := parse(fn)
		if err != nil {
			return err
		}
		if err := pipeline.New(passes...).RunContext(context.Background(), pipeline.NewContext(f)); err != nil {
			return err
		}
	}
	for i, fn := range fns {
		f, err := parse(fn)
		if err != nil {
			return err
		}
		pctx := pipeline.NewContext(f)
		if err := pipeline.Apply(pctx, passes[0]); err != nil {
			return err
		}
		root := rec.begin("probe.memo_hit", -1, i)
		s := rec.begin("core.memo_hit", root, i)
		for _, p := range passes[1:5] {
			if err := pipeline.Apply(pctx, p); err != nil {
				return err
			}
		}
		rec.end(s)
		rec.end(root)
		if !pctx.MemoHit {
			return fmt.Errorf("memo probe: function %d did not hit", fn)
		}
	}
	if len(pool) > 0 {
		return nil
	}
	var upper []string
	for i := range dupRegisters {
		upper = append(upper, fmt.Sprintf("R%d", i))
	}
	plain := facadePasses(nil, nil)
	for i, fn := range fns {
		f, err := parse(fn)
		if err != nil {
			return err
		}
		pctx := pipeline.NewContext(f)
		if err := pipeline.New(plain...).RunContext(context.Background(), pctx); err != nil {
			return err
		}
		root := rec.begin("probe.regalloc", -1, i)
		s := rec.begin("regalloc.alloc", root, i)
		err = pipeline.Apply(pctx, pipeline.RegAlloc(upper))
		rec.end(s)
		rec.end(root)
		if err != nil {
			return err
		}
	}
	return nil
}

// daemonPhase serves the workload's stream from a fresh ssad at its rate;
// /v1/stats of a daemon that served nothing else gives exact window
// figures. readDecodeParseUs is the replay's request read, decode and parse
// time per function, which the daemon's elapsed_us does not include.
func daemonPhase(ctx context.Context, cfg config, c *corpus, rec *recorder, rep *report, readDecodeParseUs float64) error {
	d, err := startDaemon(cfg.ssad, cfg.workers)
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()
	before, err := d.stats(ctx)
	if err != nil {
		return err
	}
	sh := &shooter{d: d, c: c}
	if c.batch {
		sh.lag = newLagTracker()
	}
	window := cfg.window * 3 / 10
	outs := openLoop(cfg.workers, cfg.w.Rate, window, 0, func(epoch time.Time, seq int, o *outcome) {
		sh.shoot(ctx, epoch, seq, o)
		root := rec.add("daemon.request", epoch.Add(o.sent), epoch.Add(o.done), -1, seq)
		rec.add("daemon.first_item", epoch.Add(o.sent), epoch.Add(o.first), root, seq)
	})
	after, err := d.stats(ctx)
	if err != nil {
		return err
	}
	stopped = true
	if err := d.stop(); err != nil {
		return err
	}
	wrong, nWrong := checkOutputs(c, [][]outcome{outs}, cfg.workers)
	rep.wrong += nWrong
	var lat, first, transport []float64
	for i := range outs {
		o := &outs[i]
		rep.attempted++
		if o.failed(wrong) {
			rep.failed++
			if rep.failed <= 5 {
				rep.note("failed daemon request %d: %s", o.seq, failure(o))
			}
			lat = append(lat, math.Inf(1))
			continue
		}
		lat = append(lat, ms(o.done-o.due))
		first = append(first, ms(o.first-o.sent))
		rtt := float64((o.done - o.sent).Nanoseconds()) / 1e3
		transport = append(transport, rtt-o.serverUs-readDecodeParseUs*float64(len(o.results)))
	}
	sort.Float64s(lat)
	rep.check(before.Latency.Count == 0, "daemon phase: fresh daemon already had %d requests", before.Latency.Count)
	rep.metrics["serve.server_p50_us"] = after.Latency.P50Micros
	rep.metrics["serve.server_p99_us"] = after.Latency.P99Micros
	rep.metrics["serve.overloaded"] = float64(after.Requests.Overloaded - before.Requests.Overloaded)
	rep.metrics["serve.first_item_ms"] = median(first)
	rep.metrics["serve.transport_us"] = median(transport)
	rep.metrics["loadgen.late_ms_p99"] = quantile(lateness(rep, outs), 0.99)
	if after.Memo == nil || before.Memo == nil {
		rep.check(false, "daemon reports no memo (the default config has one)")
	} else {
		hits, misses := after.Memo.Hits-before.Memo.Hits, after.Memo.Misses-before.Memo.Misses
		rep.metrics["core.memo_hit_rate"] = float64(hits) / float64(max(hits+misses, 1))
		rep.metrics["core.memo_evictions"] = float64(after.Memo.Evictions - before.Memo.Evictions)
	}
	clientP50 := quantile(lat, 0.5)
	rep.note("daemon phase: %d requests at %.0f/s over %s; client p50 %.3f ms from due time, daemon p50 %.1f us",
		len(outs), cfg.w.Rate, window, clientP50, after.Latency.P50Micros)
	rep.check(after.Latency.P50Micros/1e3 <= clientP50, "daemon p50 %.1f us exceeds client p50 %.3f ms", after.Latency.P50Micros, clientP50)
	return nil
}

// batchPhase compares sequential Translate with TranslateAll on the
// workload's functions and options, without a memo and with the collector
// off: one warm-up round, then batchRounds timed rounds of each.
func batchPhase(ctx context.Context, cfg config, c *corpus, pool []string, rep *report) error {
	n := min(batchFuncs[cfg.w.Name], len(c.funcs))
	opts := []outofssa.Option{}
	if len(pool) > 0 {
		opts = append(opts, outofssa.WithRegisterPool(pool...))
	}
	one, err := outofssa.New(append(opts, outofssa.WithWorkers(1))...)
	if err != nil {
		return err
	}
	all, err := outofssa.New(append(opts, outofssa.WithWorkers(cfg.workers))...)
	if err != nil {
		return err
	}
	clones := func() []*ir.Func {
		fns := make([]*ir.Func, n)
		for i := range fns {
			fns[i] = ir.Clone(c.funcs[i])
		}
		return fns
	}
	var seq, par time.Duration
	workers := 0
	err = withoutGC(func() error {
		for round := range batchRounds + 1 {
			var s time.Duration
			for _, f := range clones() {
				t0 := time.Now()
				_, err := one.Translate(ctx, f)
				s += time.Since(t0)
				if err != nil {
					return err
				}
			}
			runtime.GC()
			fns := clones()
			t0 := time.Now()
			res, err := all.TranslateAll(ctx, fns)
			p := time.Since(t0)
			if err != nil {
				return err
			}
			runtime.GC()
			if round > 0 {
				seq, par, workers = seq+s, par+p, res.Workers
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.metrics["pipeline.batch_efficiency"] = seq.Seconds() / (float64(workers) * par.Seconds())
	rep.note("batch phase: %d rounds of %d functions, sequential %s, TranslateAll on %d workers %s",
		batchRounds, n, seq.Round(time.Microsecond), workers, par.Round(time.Microsecond))
	return nil
}
