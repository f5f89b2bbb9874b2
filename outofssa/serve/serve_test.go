// Black-box tests of the serving surface, driven over real HTTP through
// the typed client: round-trips, per-request options, batch streaming,
// client disconnect mid-batch, deadlines, and drain. The backpressure
// tests that need the internal hold hook live in backpressure_test.go.
package serve_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/outofssa"
	"repro/outofssa/serve"
	"repro/outofssa/serve/client"
)

// corpus renders n generated SSA functions to the wire format.
func corpus(t *testing.T, n, stmts int) string {
	t.Helper()
	p := outofssa.DefaultProfile("servetest", 11)
	p.Funcs = n
	if stmts > 0 {
		p.MaxStmts = stmts
		p.MinStmts = stmts / 3
	}
	var b strings.Builder
	for _, f := range outofssa.Generate(p) {
		b.WriteString(f.String())
		b.WriteString("\n")
	}
	return b.String()
}

func startServer(t *testing.T, cfg serve.Config) (*httptest.Server, *client.Client) {
	t.Helper()
	ts := httptest.NewServer(serve.New(cfg))
	t.Cleanup(ts.Close)
	return ts, client.New(ts.URL, ts.Client())
}

func TestTranslateRoundTrip(t *testing.T) {
	_, cl := startServer(t, serve.Config{})
	src := corpus(t, 1, 0)
	for _, name := range outofssa.StrategyNames() {
		resp, err := cl.Translate(context.Background(), serve.TranslateRequest{
			Source:   src,
			Strategy: name,
		})
		if err != nil {
			t.Fatalf("strategy %s: %v", name, err)
		}
		if resp.Name == "" || resp.Output == "" || resp.Stats == nil {
			t.Fatalf("strategy %s: incomplete response %+v", name, resp)
		}
		if strings.Contains(resp.Output, "phi ") {
			t.Fatalf("strategy %s: output still contains φs:\n%s", name, resp.Output)
		}
		// The translated output must itself parse: the wire format is closed
		// under translation.
		if _, err := outofssa.ParseAll(resp.Output); err != nil {
			t.Fatalf("strategy %s: output does not re-parse: %v", name, err)
		}
	}
}

// TestTranslateRawBodyAndQuery exercises the curl path: raw textual IR as
// the body, options as query parameters, no JSON anywhere in the request.
// The removed machinery fields (graph, livecheck, linear, ordered_sets)
// are refused with a 400 naming the field, as query parameters and as
// JSON body fields alike.
func TestTranslateRawBodyAndQuery(t *testing.T) {
	ts, _ := startServer(t, serve.Config{})
	src := corpus(t, 1, 0)
	post := func(query, contentType, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/translate"+query, contentType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(data)
	}
	code, body := post("?strategy=intersect&split_edges=true", "text/plain", src)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if !strings.Contains(body, `"output"`) {
		t.Fatalf("no output field in %s", body)
	}

	code, body = post("?strategy=intersect&graph=true&livecheck=false", "text/plain", src)
	if code != http.StatusBadRequest || !strings.Contains(body, `\"graph\"`) {
		t.Fatalf("removed query fields: status %d, body %s; want 400 naming graph", code, body)
	}
	for _, field := range []string{"graph", "livecheck", "linear", "ordered_sets"} {
		code, body = post("?"+field+"=false", "text/plain", src)
		if code != http.StatusBadRequest || !strings.Contains(body, field) {
			t.Errorf("query %s: status %d, body %s; want 400 naming the field", field, code, body)
		}
		req, err := json.Marshal(map[string]any{"source": src, field: true})
		if err != nil {
			t.Fatal(err)
		}
		code, body = post("", "application/json", string(req))
		if code != http.StatusBadRequest || !strings.Contains(body, field) {
			t.Errorf("JSON field %s: status %d, body %s; want 400 naming the field", field, code, body)
		}
	}
}

func TestTranslateRejections(t *testing.T) {
	ts, cl := startServer(t, serve.Config{MaxRequestBytes: 64 << 10})
	ctx := context.Background()
	cases := []struct {
		name string
		req  serve.TranslateRequest
		want int
	}{
		{"unknown strategy", serve.TranslateRequest{Source: corpus(t, 1, 0), Strategy: "bogus"}, http.StatusBadRequest},
		{"parse failure", serve.TranslateRequest{Source: "func f {\nentry:\n  x = frobnicate y\n  ret x\n}"}, http.StatusBadRequest},
		{"multiple functions", serve.TranslateRequest{Source: corpus(t, 2, 0)}, http.StatusBadRequest},
		{"oversized body", serve.TranslateRequest{Source: strings.Repeat("x", 128<<10)}, http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		_, err := cl.Translate(ctx, c.req)
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.StatusCode != c.want {
			t.Errorf("%s: want status %d, got %v", c.name, c.want, err)
		}
	}
	// Wrong method and unknown paths 404/405 rather than hang.
	resp, err := http.Get(ts.URL + "/v1/translate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/translate: status %d", resp.StatusCode)
	}
}

func TestBatchStreamsItemsAndSummary(t *testing.T) {
	const n = 16
	_, cl := startServer(t, serve.Config{})
	var items []serve.BatchItem
	sum, err := cl.Batch(context.Background(),
		serve.TranslateRequest{Source: corpus(t, n, 0), Strategy: "valueis"},
		func(it serve.BatchItem) error { items = append(items, it); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != n {
		t.Fatalf("streamed %d items, want %d", len(items), n)
	}
	seen := make(map[int]bool)
	for _, it := range items {
		if it.Error != "" || it.Stats == nil || it.Output == "" {
			t.Fatalf("incomplete item %+v", it)
		}
		if seen[it.Index] {
			t.Fatalf("index %d streamed twice", it.Index)
		}
		seen[it.Index] = true
	}
	if sum.Funcs != n || sum.OK != n || sum.Failed != 0 || sum.Canceled != 0 {
		t.Fatalf("bad summary %+v", sum)
	}
	if sum.Stats == nil || sum.Stats.Phis == 0 {
		t.Fatalf("summary aggregate missing: %+v", sum.Stats)
	}
}

// TestBatchClientDisconnect proves the tentpole cancellation property: a
// client that drops mid-/v1/batch cancels the remaining work (functions
// stop at pass boundaries, never-claimed ones are never run) and the
// server's accounting still ends complete and consistent.
func TestBatchClientDisconnect(t *testing.T) {
	const n = 64
	ts, cl := startServer(t, serve.Config{BatchWorkers: 1})
	src := corpus(t, n, 4000) // big functions so the batch outlives the disconnect

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/batch?quiet=true",
		strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read exactly one streamed item, then vanish.
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()

	// The handler keeps consuming the stream after the client is gone so the
	// batch accounting completes; poll the stats until it has.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := cl.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		total := st.Functions.OK + st.Functions.Failed + st.Functions.Canceled
		if st.Requests.Canceled == 1 && total == n {
			if st.Functions.Canceled == 0 {
				t.Fatalf("disconnect canceled nothing: %+v", st.Functions)
			}
			if st.Functions.OK == 0 {
				t.Fatalf("nothing completed before the disconnect: %+v", st.Functions)
			}
			if st.Functions.Failed != 0 {
				t.Fatalf("disconnect misclassified as failure: %+v", st.Functions)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch accounting never completed: requests=%+v functions=%+v (want canceled=1, %d funcs)",
				st.Requests, st.Functions, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBatchDeadline: a request-scoped deadline cancels the remainder of a
// batch but the summary still arrives (the connection is alive — only the
// translation context expired).
func TestBatchDeadline(t *testing.T) {
	const n = 64
	_, cl := startServer(t, serve.Config{BatchWorkers: 1})
	sum, err := cl.Batch(context.Background(),
		serve.TranslateRequest{Source: corpus(t, n, 4000), Quiet: true, TimeoutMillis: 100},
		nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Funcs != n || sum.OK+sum.Failed+sum.Canceled != n {
		t.Fatalf("summary does not account every function: %+v", sum)
	}
	if sum.Canceled == 0 {
		t.Fatalf("30ms deadline canceled nothing across %d large functions: %+v", n, sum)
	}
}

func TestDrainRefusesNewWork(t *testing.T) {
	ts, cl := startServer(t, serve.Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy server: /healthz = %d", resp.StatusCode)
	}

	// Reach inside via the handler we constructed the test server with.
	ts.Config.Handler.(*serve.Server).Drain()

	_, err = cl.Translate(context.Background(), serve.TranslateRequest{Source: corpus(t, 1, 0)})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server accepted work: %v", err)
	}
	if ae.RetryAfter <= 0 {
		t.Fatalf("draining 503 without Retry-After: %+v", ae)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server: /healthz = %d", resp.StatusCode)
	}
}

func TestStatsAccounting(t *testing.T) {
	const n = 8
	_, cl := startServer(t, serve.Config{})
	ctx := context.Background()
	src := corpus(t, 1, 0)
	for i := 0; i < n; i++ {
		if _, err := cl.Translate(ctx, serve.TranslateRequest{Source: src}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests.Translate != n || st.Requests.OK != n || st.Functions.OK != n {
		t.Fatalf("request accounting: %+v / %+v", st.Requests, st.Functions)
	}
	if st.Latency.Count != n || st.Latency.P50Micros <= 0 ||
		st.Latency.P50Micros > st.Latency.P99Micros || st.Latency.P99Micros > st.Latency.MaxMicros {
		t.Fatalf("latency snapshot incoherent: %+v", st.Latency)
	}
	if st.Translation.Phis == 0 || st.Translation.IntersectionTests == 0 {
		t.Fatalf("Figure 5 aggregate missing: %+v", st.Translation)
	}
	if st.Cache.Misses == 0 {
		t.Fatalf("cache accounting missing: %+v", st.Cache)
	}
	// Same function 8 times through a shared translator: the analysis cache
	// must have hits, and the scrape's hit rate must agree with the tallies.
	if st.Cache.Hits == 0 {
		t.Fatalf("no cache hits across %d identical requests: %+v", n, st.Cache)
	}
	if st.PhaseNanos.Coalesce == 0 {
		t.Fatalf("phase timings missing: %+v", st.PhaseNanos)
	}
	if st.InFlight != 0 || st.Queued != 0 || st.Draining {
		t.Fatalf("idle gauges wrong: in_flight=%d queued=%d draining=%v", st.InFlight, st.Queued, st.Draining)
	}
}
