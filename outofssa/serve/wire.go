package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"mime"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/outofssa"
)

// TranslateRequest is the wire form of one translation request — the JSON
// body of POST /v1/translate and POST /v1/batch. For curl-ability both
// endpoints also accept the raw textual IR as the body (any non-JSON
// content type), with the remaining fields supplied as query parameters
// (?strategy=sharing&registers=4&timeout_ms=1000 …).
//
// The machinery toggles are pointers so that an absent field keeps the
// strategy's default (WithStrategy implies virtualization for sreedhar3,
// for example); a present field is applied after the strategy, last one
// wins, and the server validates the final combination exactly like
// outofssa.New does. The daemon serves one liveness and interference
// machinery, the defaults: a request naming graph, livecheck, linear or
// ordered_sets is refused with a RemovedFieldError.
type TranslateRequest struct {
	// Source is the textual IR: exactly one function for /v1/translate,
	// any number of concatenated functions for /v1/batch.
	Source string `json:"source"`
	// Strategy names the coalescing strategy (one of
	// outofssa.StrategyNames, case-insensitive); empty selects the
	// server's default (sharing).
	Strategy string `json:"strategy,omitempty"`

	// Machinery toggles, mirroring the outofssa functional options.
	Virtualize   *bool `json:"virtualize,omitempty"`    // WithVirtualization
	SplitEdges   *bool `json:"split_edges,omitempty"`   // WithCriticalEdgeSplitting
	KeepParallel *bool `json:"keep_parallel,omitempty"` // WithParallelCopies
	Verify       *bool `json:"verify,omitempty"`        // WithVerify (default on)

	// Registers, when positive, enables the register-allocation stage with
	// a pool of r0..r(n-1) (WithRegisters).
	Registers int `json:"registers,omitempty"`
	// TimeoutMillis is the per-request deadline; 0 selects the server's
	// default, and the server clamps any request to its configured
	// maximum.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// Quiet, on /v1/batch, omits the translated IR text from the streamed
	// items (the functions are still translated server-side) — for load
	// generation, where the caller only wants timings and counters.
	Quiet bool `json:"quiet,omitempty"`
}

// translator builds the per-request Translator, with extra server-side
// options (worker bound) applied last. It reuses the public option
// constructors — outofssa.ParseStrategy for the name table and
// outofssa.New for Options.Validate — so a request can express exactly the
// configurations the CLI tools can, and an invalid combination fails with
// the same message.
func (req *TranslateRequest) translator(extra ...outofssa.Option) (*outofssa.Translator, error) {
	opts := []outofssa.Option{}
	if req.Strategy != "" {
		s, err := outofssa.ParseStrategy(req.Strategy)
		if err != nil {
			return nil, err
		}
		opts = append(opts, outofssa.WithStrategy(s))
	}
	if req.Virtualize != nil {
		opts = append(opts, outofssa.WithVirtualization(*req.Virtualize))
	}
	if req.SplitEdges != nil {
		opts = append(opts, outofssa.WithCriticalEdgeSplitting(*req.SplitEdges))
	}
	if req.KeepParallel != nil {
		opts = append(opts, outofssa.WithParallelCopies(*req.KeepParallel))
	}
	if req.Verify != nil {
		opts = append(opts, outofssa.WithVerify(*req.Verify))
	}
	if req.Registers < 0 {
		return nil, fmt.Errorf("serve: negative register count %d", req.Registers)
	}
	if req.Registers > 0 {
		opts = append(opts, outofssa.WithRegisters(req.Registers))
	}
	opts = append(opts, extra...)
	return outofssa.New(opts...)
}

// RemovedFieldError refuses a request that names a field the daemon no
// longer accepts. The fields graph, livecheck, linear and ordered_sets
// chose how the same answer was computed; they exist to reproduce the
// paper's Figures 6 and 7, which ssabench does without the daemon, and on
// the wire they keyed the memo separately and let one request ask for a
// quadratic interference graph.
type RemovedFieldError struct {
	Field string
}

func (e *RemovedFieldError) Error() string {
	return fmt.Sprintf("serve: request field %q was removed: the daemon serves the default machinery only", e.Field)
}

// removedFields are the request fields RemovedFieldError refuses.
var removedFields = [...]string{"graph", "livecheck", "linear", "ordered_sets"}

// parseRequest reads one TranslateRequest from an HTTP request. A JSON
// content type selects the JSON body form; anything else treats the whole
// body as the textual IR source. Query parameters are applied first in
// both forms, so a JSON body can still be combined with ?strategy=…, with
// the body winning where both name a field.
func parseRequest(r *http.Request) (TranslateRequest, error) {
	var req TranslateRequest
	q := r.URL.Query()
	for _, name := range removedFields {
		if q.Has(name) {
			return req, &RemovedFieldError{Field: name}
		}
	}
	if err := applyQuery(&req, q); err != nil {
		return req, err
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return req, fmt.Errorf("serve: reading request body: %w", err)
	}
	ct := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err == nil && (mt == "application/json" || strings.HasSuffix(mt, "+json")) {
		// The removed fields decode in the same pass as the request, only
		// to be refused.
		wire := struct {
			*TranslateRequest
			Graph       json.RawMessage `json:"graph"`
			LiveCheck   json.RawMessage `json:"livecheck"`
			Linear      json.RawMessage `json:"linear"`
			OrderedSets json.RawMessage `json:"ordered_sets"`
		}{TranslateRequest: &req}
		if err := json.Unmarshal(body, &wire); err != nil {
			return req, fmt.Errorf("serve: decoding JSON request: %w", err)
		}
		for i, raw := range [...]json.RawMessage{wire.Graph, wire.LiveCheck, wire.Linear, wire.OrderedSets} {
			if raw != nil {
				return req, &RemovedFieldError{Field: removedFields[i]}
			}
		}
	} else {
		req.Source = string(body)
	}
	if strings.TrimSpace(req.Source) == "" {
		return req, fmt.Errorf("serve: empty source")
	}
	return req, nil
}

// applyQuery folds URL query parameters into req, accepting the same
// field names as the JSON form.
func applyQuery(req *TranslateRequest, q url.Values) error {
	if v := q.Get("strategy"); v != "" {
		req.Strategy = v
	}
	boolParam := func(name string, dst **bool) error {
		v := q.Get(name)
		if v == "" {
			return nil
		}
		b, err := strconv.ParseBool(v)
		if err != nil {
			return fmt.Errorf("serve: query parameter %s: %w", name, err)
		}
		*dst = &b
		return nil
	}
	for name, dst := range map[string]**bool{
		"virtualize":    &req.Virtualize,
		"split_edges":   &req.SplitEdges,
		"keep_parallel": &req.KeepParallel,
		"verify":        &req.Verify,
	} {
		if err := boolParam(name, dst); err != nil {
			return err
		}
	}
	if v := q.Get("registers"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return fmt.Errorf("serve: query parameter registers: %w", err)
		}
		req.Registers = n
	}
	if v := q.Get("timeout_ms"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fmt.Errorf("serve: query parameter timeout_ms: %w", err)
		}
		req.TimeoutMillis = n
	}
	if v := q.Get("quiet"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return fmt.Errorf("serve: query parameter quiet: %w", err)
		}
		req.Quiet = b
	}
	return nil
}

// TranslateResponse is the JSON response of POST /v1/translate.
type TranslateResponse struct {
	// Name is the translated function's name.
	Name string `json:"name"`
	// Output is the translated (φ-free) function in the textual IR form.
	Output string `json:"output"`
	// Stats reports what the translation did (the paper's Figure 5-7
	// counters for this one function).
	Stats *outofssa.Stats `json:"stats,omitempty"`
	// CleanedBlocks counts degenerate jump blocks folded away.
	CleanedBlocks int `json:"cleaned_blocks,omitempty"`
	// CacheHits/CacheMisses report the function's analysis-cache
	// behaviour.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// MemoHit reports that the whole translation was served from the
	// server's translation memo (a structurally identical function was
	// translated before with the same options).
	MemoHit bool `json:"memo_hit,omitempty"`
	// RegsUsed and Spills summarize the register allocation when the
	// request enabled it.
	RegsUsed int `json:"regs_used,omitempty"`
	Spills   int `json:"spills,omitempty"`
	// ElapsedMicros is the server-side wall clock of the translation
	// (admission wait excluded).
	ElapsedMicros float64 `json:"elapsed_us"`
}

// BatchItem is one line of the /v1/batch NDJSON stream: one function's
// outcome, emitted in completion order as the batch makes progress.
type BatchItem struct {
	// Index is the function's position in the request source.
	Index int `json:"index"`
	// Name is the function's name.
	Name string `json:"name"`
	// Output is the translated function's textual IR; empty when the
	// request set quiet, or when the function failed.
	Output string `json:"output,omitempty"`
	// Stats are the function's translation counters (successes only).
	Stats *outofssa.Stats `json:"stats,omitempty"`
	// Error is the per-function failure, when there was one; Pass names
	// the failing pass when the failure was a typed *outofssa.PassError,
	// and Canceled marks a function stopped (or skipped) by cancellation —
	// client disconnect or deadline — rather than rejected by a pass.
	Error    string `json:"error,omitempty"`
	Pass     string `json:"pass,omitempty"`
	Canceled bool   `json:"canceled,omitempty"`
}

// BatchSummary is the trailer line of the /v1/batch NDJSON stream,
// distinguished by "done": true. A stream that ends without one was cut
// short (client disconnect, server hard stop).
type BatchSummary struct {
	Done bool `json:"done"`
	// Funcs counts the functions in the request; OK, Failed and Canceled
	// partition how far they got (canceled functions were cut off by the
	// request deadline).
	Funcs    int `json:"funcs"`
	OK       int `json:"ok"`
	Failed   int `json:"failed"`
	Canceled int `json:"canceled"`
	// Stats aggregates the successful functions' counters via
	// Stats.Accumulate — deterministic for any worker count.
	Stats *outofssa.Stats `json:"stats,omitempty"`
	// ElapsedMicros is the server-side wall clock of the whole batch.
	ElapsedMicros float64 `json:"elapsed_us"`
}

// errorResponse is the JSON body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}
