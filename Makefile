GO ?= go

.PHONY: build test vet bench race examples ci chaos fuzz perfbench-check figures perfbench bench-compare bench-store-list

# Persistent bench store directory; `make perfbench` appends every run here
# and `make bench-store-list` shows the accumulated runs.
BENCH_STORE ?= .ssabench
# Workload of `make perfbench`: serve-small, batch-large or serve-dup (see
# BENCHMARK.json).
W ?= batch-large
# Baseline reference for bench-compare: a snapshot name, an id prefix, or an
# envelope file. Name one with
# `go run ./cmd/ssabench store snapshot -name baseline -ref <id>`.
BENCH_BASELINE ?= baseline
# Extra compare flags, e.g. BENCH_COMPARE_FLAGS=-allow-machine-mismatch
# when gating against a baseline recorded on different hardware.
BENCH_COMPARE_FLAGS ?=

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -bench . -benchmem ./...

race:
	$(GO) test -race ./...

examples:
	$(GO) build ./examples/...

# Chaos suite: a self-hosted daemon under mixed traffic with seeded
# failpoints firing in every layer, run under the race detector. CI uses
# CHAOS_DURATION=15s; the default keeps local runs fast.
CHAOS_DURATION ?= 2s
chaos:
	SSAD_CHAOS_DURATION=$(CHAOS_DURATION) $(GO) test -race -count=1 -run 'TestChaos$$' -v ./outofssa/serve

# Fuzz both targets briefly: the parser (never panic, print/re-parse) and
# the translate differential oracle (reference vs optimized machinery,
# interpreter-checked). The committed seed corpus lives in
# outofssa/testdata/fuzz/.
FUZZTIME ?= 15s
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzParse$$' -fuzztime $(FUZZTIME) ./outofssa
	$(GO) test -run '^$$' -fuzz 'FuzzTranslate$$' -fuzztime $(FUZZTIME) ./outofssa

# Vet and self-test the benchmark module. perfbench/ is its own module
# (repro/perfbench, replace repro => ../), so the root `go test ./...`
# never builds it; this target catches engine API changes that break it.
perfbench-check:
	$(GO) -C perfbench vet .
	$(GO) -C perfbench test .

figures:
	$(GO) run ./cmd/ssabench -fig all

# Run one perfbench workload and import its result line into the store.
#
#	make perfbench W=serve-dup
perfbench:
	bash perfbench/run.sh --workload $(W) | $(GO) run ./cmd/ssabench store import -workload $(W) -store $(BENCH_STORE)

# Gate the latest stored run against the baseline reference under
# compare.PerfbenchPolicies; exits nonzero on any violation.
#
#	make perfbench W=batch-large BENCH_STORE=.ssabench
#	make bench-compare BENCH_BASELINE=baseline
bench-compare:
	$(GO) run ./cmd/ssabench compare -store $(BENCH_STORE) \
		-baseline $(BENCH_BASELINE) -candidate latest $(BENCH_COMPARE_FLAGS)

bench-store-list:
	$(GO) run ./cmd/ssabench store list -store $(BENCH_STORE)

ci: vet build test race examples chaos perfbench-check
