package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/outofssa/serve"
)

// outcome is one request (or one TranslateAll call) of a timed phase. Times
// are offsets from the phase's start.
type outcome struct {
	seq   int
	due   time.Duration // open loop only
	sent  time.Duration
	first time.Duration // first result received
	done  time.Duration
	// serverUs is the elapsed_us the daemon reported.
	serverUs float64
	results  []fnOutput
	err      error
}

// fnOutput is one translated function as returned.
type fnOutput struct {
	fn     int
	output string
	stats  *core.Stats
}

// failed reports whether the operation failed, wrong outputs included.
func (o *outcome) failed(wrong map[fnOutputKey]bool) bool {
	if o.err != nil {
		return true
	}
	for _, r := range o.results {
		if wrong[fnOutputKey{r.fn, r.output}] {
			return true
		}
	}
	return false
}

// lagTracker lets a serve-dup request wait until the request that carried
// the bases of its clones has completed, so every designed memo hit is a
// hit whatever the scheduling.
type lagTracker struct {
	mu   sync.Mutex
	cond *sync.Cond
	done map[int]bool
}

func newLagTracker() *lagTracker {
	t := &lagTracker{done: map[int]bool{}}
	t.cond = sync.NewCond(&t.mu)
	return t
}

func (t *lagTracker) wait(seq int) {
	if seq < 0 {
		return
	}
	t.mu.Lock()
	for !t.done[seq] {
		t.cond.Wait()
	}
	t.mu.Unlock()
}

func (t *lagTracker) mark(seq int) {
	t.mu.Lock()
	t.done[seq] = true
	t.mu.Unlock()
	t.cond.Broadcast()
}

// shooter sends stream position seq to the daemon and fills o. epoch is the
// phase start the outcome's times are relative to.
type shooter struct {
	d   *daemon
	c   *corpus
	lag *lagTracker // nil unless the stream has clones
}

func (sh *shooter) shoot(ctx context.Context, epoch time.Time, seq int, o *outcome) {
	o.seq = seq
	if sh.lag != nil {
		defer sh.lag.mark(seq)
		sh.lag.wait(seq - dupLag)
	}
	o.sent = time.Since(epoch)
	r := &sh.c.reqs[sh.c.reqIndex(seq)]
	path := "/v1/translate"
	if sh.c.batch {
		path = "/v1/batch"
	}
	o.err = sh.post(ctx, epoch, path, r, o)
	o.done = time.Since(epoch)
}

func (sh *shooter) post(ctx context.Context, epoch time.Time, path string, r *request, o *outcome) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, sh.d.base+path, bytes.NewReader(r.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := sh.d.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if !sh.c.batch {
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		o.first = time.Since(epoch)
		var tr serve.TranslateResponse
		if err := json.Unmarshal(body, &tr); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		o.serverUs = tr.ElapsedMicros
		o.results = append(o.results, fnOutput{r.fns[0], tr.Output, tr.Stats})
		return nil
	}
	br := bufio.NewReader(resp.Body)
	var sum *serve.BatchSummary
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			if len(o.results) == 0 && o.first == 0 {
				o.first = time.Since(epoch)
			}
			if bytes.HasPrefix(line, []byte(`{"done"`)) {
				sum = new(serve.BatchSummary)
				if err := json.Unmarshal(line, sum); err != nil {
					return fmt.Errorf("%s: summary: %w", path, err)
				}
			} else {
				var it serve.BatchItem
				if err := json.Unmarshal(line, &it); err != nil {
					return fmt.Errorf("%s: item: %w", path, err)
				}
				if it.Error != "" {
					return fmt.Errorf("%s: function %s: %s", path, it.Name, it.Error)
				}
				if it.Index < 0 || it.Index >= len(r.fns) {
					return fmt.Errorf("%s: item index %d out of range", path, it.Index)
				}
				o.results = append(o.results, fnOutput{r.fns[it.Index], it.Output, it.Stats})
			}
		}
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
	}
	if sum == nil || sum.OK != len(r.fns) || len(o.results) != len(r.fns) {
		return fmt.Errorf("%s: incomplete batch stream (%d of %d items)", path, len(o.results), len(r.fns))
	}
	o.serverUs = sum.ElapsedMicros
	return nil
}

// openLoop sends requests due at a fixed rate from seq0 on, for dur, on
// `workers` goroutines (one connection each). A request that finds every
// worker busy is sent late; its latency still counts from its due time.
func openLoop(workers int, rate float64, dur time.Duration, seq0 int, shoot func(epoch time.Time, seq int, o *outcome)) []outcome {
	n := int(rate * dur.Seconds())
	outs := make([]outcome, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	epoch := time.Now()
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := time.Duration(float64(i) / rate * float64(time.Second))
				waitUntil(epoch, due)
				outs[i].due = due
				shoot(epoch, seq0+i, &outs[i])
			}
		}()
	}
	wg.Wait()
	return outs
}

// waitUntil returns at epoch+due, or at once if that has passed. It sleeps
// in nanosleep rather than time.Sleep: the runtime's poller waits in whole
// milliseconds, so a short time.Sleep overshoots by most of one, which
// would count as generator lateness in every open-loop latency.
func waitUntil(epoch time.Time, due time.Duration) {
	if wait := due - time.Since(epoch); wait > 0 {
		ts := syscall.NsecToTimespec(int64(wait))
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
}

// closedLoop runs `clients` callers back to back from seq0 on until dur has
// passed (or, with dur == 0, until `count` operations were claimed). It
// returns the outcomes in claim order and the phase's wall time.
func closedLoop(clients int, dur time.Duration, count int, seq0 int, shoot func(epoch time.Time, seq int, o *outcome)) ([]outcome, time.Duration) {
	var mu sync.Mutex
	var outs []outcome
	var next atomic.Int64
	var wg sync.WaitGroup
	epoch := time.Now()
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if dur > 0 && time.Since(epoch) >= dur {
					return
				}
				i := int(next.Add(1) - 1)
				if dur == 0 && i >= count {
					return
				}
				var o outcome
				shoot(epoch, seq0+i, &o)
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(epoch)
	sort.Slice(outs, func(a, b int) bool { return outs[a].seq < outs[b].seq })
	return outs, elapsed
}

// quantile returns the q-quantile (nearest rank) of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// median of unsorted values.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
