// White-box tests of admission control: these pin the in-flight slots
// deterministically through the holdForTest hook, which the black-box
// tests in serve_test.go cannot reach. (They must live in package serve;
// the typed client package cannot be imported here — it would cycle.)
package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/outofssa"
)

func testSource(t *testing.T) string {
	t.Helper()
	p := outofssa.DefaultProfile("backpressure", 5)
	p.Funcs = 1
	return outofssa.Generate(p)[0].String()
}

// pinServer builds a server whose admitted requests block until release is
// called, so tests can fill the in-flight slots deterministically.
func pinServer(t *testing.T, cfg Config) (s *Server, ts *httptest.Server, release func()) {
	t.Helper()
	hold := make(chan struct{})
	s = New(cfg)
	s.holdForTest = hold
	ts = httptest.NewServer(s)
	t.Cleanup(ts.Close)
	var once sync.Once
	release = func() { once.Do(func() { close(hold) }) }
	t.Cleanup(release) // never leave blocked handlers behind a failed test
	return s, ts, release
}

func post(t *testing.T, url, src string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/translate", "text/plain", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// waitInFlight blocks until the gate shows n admitted requests.
func waitInFlight(t *testing.T, s *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.gate.inFlight.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight never reached %d (at %d)", n, s.gate.inFlight.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOverloadSheds429 fills the single in-flight slot (no queue) and
// checks the next request is shed with 429 + a positive Retry-After while
// the pinned request still completes once released.
func TestOverloadSheds429(t *testing.T) {
	s, ts, release := pinServer(t, Config{MaxInFlight: 1, MaxQueue: -1})
	src := testSource(t)

	type result struct {
		status int
		body   string
	}
	pinned := make(chan result, 1)
	go func() {
		resp := post(t, ts.URL, src)
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		pinned <- result{resp.StatusCode, string(b)}
	}()
	waitInFlight(t, s, 1)

	resp := post(t, ts.URL, src)
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full server answered %d: %s", resp.StatusCode, b)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("429 without usable Retry-After %q: %v", resp.Header.Get("Retry-After"), err)
	}

	release()
	got := <-pinned
	if got.status != http.StatusOK {
		t.Fatalf("pinned request died: %d: %s", got.status, got.body)
	}

	// Shed requests are never admitted: they must not appear in the latency
	// histogram or the ok/failed/canceled request counters.
	if n := s.stats.reqOverloaded.Load(); n != 1 {
		t.Fatalf("overloaded counter = %d, want 1", n)
	}
	if n := s.stats.reqOK.Load(); n != 1 {
		t.Fatalf("ok counter = %d, want 1", n)
	}
	if n := s.stats.hist.snapshot().count; n != 1 {
		t.Fatalf("latency count = %d, want 1 (shed requests must not be observed)", n)
	}
}

// TestQueueAdmitsThenSheds: with one slot and one queue seat, the second
// request waits (no 429) and the third is shed; releasing drains the queue.
func TestQueueAdmitsThenSheds(t *testing.T) {
	s, ts, release := pinServer(t, Config{MaxInFlight: 1, MaxQueue: 1})
	src := testSource(t)

	statuses := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp := post(t, ts.URL, src)
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
		if i == 0 {
			waitInFlight(t, s, 1)
		} else {
			deadline := time.Now().Add(5 * time.Second)
			for s.gate.queued.Load() != 1 {
				if time.Now().After(deadline) {
					t.Fatalf("second request never queued (queued=%d)", s.gate.queued.Load())
				}
				time.Sleep(time.Millisecond)
			}
		}
	}

	resp := post(t, ts.URL, src)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow past the queue answered %d", resp.StatusCode)
	}

	release()
	for i := 0; i < 2; i++ {
		if st := <-statuses; st != http.StatusOK {
			t.Fatalf("admitted request %d answered %d", i, st)
		}
	}
	if in, q := s.gate.inFlight.Load(), s.gate.queued.Load(); in != 0 || q != 0 {
		t.Fatalf("gauges not restored: in_flight=%d queued=%d", in, q)
	}
}

// TestConcurrentStatsIntegrity hammers translate, batch, bad requests, and
// stats scrapes concurrently (run under -race in CI) and then checks the
// books balance: every issued request is accounted exactly once. With 40
// admissible requests against 4 slots and a 16-deep queue some may be
// rejected with 429, so the client tallies every status and the server's
// counters must match those tallies exactly. The latency quantiles
// /v1/stats then reports must satisfy 0 < p50 ≤ p90 ≤ p99 ≤ max.
func TestConcurrentStatsIntegrity(t *testing.T) {
	s := New(Config{MaxInFlight: 4})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	src := testSource(t)
	batchSrc := src + "\n" + strings.ReplaceAll(src, "func ", "func second_")

	var mu sync.Mutex
	statuses := map[int]int{}    // translate and batch responses by status
	badStatuses := map[int]int{} // unparsable translate requests by status
	var funcsOK int64            // functions in the 200 responses
	send := func(path, body string) (int, []byte) {
		resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Error(err)
		}
		return resp.StatusCode, data
	}

	const perKind = 20
	var wg sync.WaitGroup
	for i := 0; i < perKind; i++ {
		wg.Add(4)
		go func() {
			defer wg.Done()
			code, _ := send("/v1/translate", src)
			mu.Lock()
			defer mu.Unlock()
			statuses[code]++
			if code == http.StatusOK {
				funcsOK++
			}
		}()
		go func() {
			defer wg.Done()
			code, body := send("/v1/batch?quiet=true", batchSrc)
			var sum BatchSummary
			if code == http.StatusOK {
				lines := strings.Split(strings.TrimSpace(string(body)), "\n")
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil || !sum.Done {
					t.Errorf("batch summary %q: %v", lines[len(lines)-1], err)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			statuses[code]++
			funcsOK += int64(sum.OK)
		}()
		go func() {
			defer wg.Done()
			code, _ := send("/v1/translate", "this does not parse")
			mu.Lock()
			defer mu.Unlock()
			badStatuses[code]++
		}()
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/stats")
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}
	wg.Wait()

	for code := range statuses {
		if code != http.StatusOK && code != http.StatusTooManyRequests {
			t.Fatalf("translate/batch statuses %v: want only 200 and 429", statuses)
		}
	}
	if badStatuses[http.StatusBadRequest] != perKind {
		t.Fatalf("unparsable requests answered %v, want %d x 400", badStatuses, perKind)
	}
	st := s.statsResponse()
	if st.Requests.Translate != 2*perKind || st.Requests.Batch != perKind {
		t.Fatalf("request counters: %+v", st.Requests)
	}
	admitted := st.Requests.OK + st.Requests.Failed + st.Requests.Canceled
	if admitted+st.Requests.Overloaded != 2*perKind || st.Requests.BadRequest != perKind {
		t.Fatalf("admission books don't balance: %+v", st.Requests)
	}
	if st.Requests.OK != int64(statuses[http.StatusOK]) ||
		st.Requests.Overloaded != int64(statuses[http.StatusTooManyRequests]) {
		t.Fatalf("server counters %+v disagree with the client's statuses %v", st.Requests, statuses)
	}
	if st.Latency.Count != admitted {
		t.Fatalf("latency count %d != admitted %d", st.Latency.Count, admitted)
	}
	if st.Functions.OK != funcsOK {
		t.Fatalf("functions ok = %d, want %d (the functions in the 200 responses)", st.Functions.OK, funcsOK)
	}

	// The latency quantiles /v1/stats reports are coherent.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wire StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if l := wire.Latency; !(0 < l.P50Micros && l.P50Micros <= l.P90Micros && l.P90Micros <= l.P99Micros && l.P99Micros <= l.MaxMicros) {
		t.Fatalf("/v1/stats latency quantiles incoherent: p50=%v p90=%v p99=%v max=%v",
			l.P50Micros, l.P90Micros, l.P99Micros, l.MaxMicros)
	}
}

// TestHistogramQuantiles sanity-checks the lock-free histogram: a known
// distribution lands within one exponential bucket (ratio 2^¼ ≈ 19%) of
// the true quantiles and the snapshot is internally ordered.
func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	for i := 1; i <= 1000; i++ {
		h.observe(time.Duration(i) * 100 * time.Microsecond) // 0.1ms .. 100ms uniform
	}
	snap := h.snapshot()
	if snap.count != 1000 {
		t.Fatalf("count %d", snap.count)
	}
	for _, c := range []struct {
		q, trueNs float64
	}{{0.50, 50e6}, {0.90, 90e6}, {0.99, 99e6}} {
		got := snap.quantile(c.q)
		if got < c.trueNs/1.3 || got > c.trueNs*1.3 {
			t.Errorf("q%.0f = %.2fms, want within a bucket of %.2fms", c.q*100, got/1e6, c.trueNs/1e6)
		}
	}
	if p50, p99 := snap.quantile(0.5), snap.quantile(0.99); p50 > p99 {
		t.Fatalf("quantiles not monotonic: p50=%f p99=%f", p50, p99)
	}
	if snap.maxNs < int64(snap.quantile(0.99)) {
		t.Fatalf("max %d below p99 %f", snap.maxNs, snap.quantile(0.99))
	}
}
