// Package repro reproduces "Revisiting Out-of-SSA Translation for
// Correctness, Code Quality, and Efficiency" (Boissinot, Darte, Rastello,
// Dupont de Dinechin, Guillon — CGO 2009) as a self-contained Go library.
//
// The public surface is package repro/outofssa: a Translator built from
// functional options, context-aware single and batch translation with
// streaming per-function results, typed *PassError failures, the textual
// IR parser, the interpreter oracle, and the synthetic workload
// generator; repro/outofssa/bench regenerates the paper's Figures 5-7.
//
// The engine lives under internal/ and may change without notice: the
// paper's translator in internal/core; its substrates (IR, dominance,
// liveness, fast liveness checking, interference, congruence classes,
// parallel-copy sequentialization, the Sreedhar methods, workload
// generation, interpretation) each in their own package; and
// internal/pipeline, which assembles everything into a pass pipeline over
// the shared analysis cache of internal/analysis with a concurrent,
// cancellable batch driver. cmd/ssabench regenerates the figures;
// cmd/ssadump translates textual SSA functions; cmd/ssagen emits
// generator output; cmd/ssad serves translations over HTTP.
//
// The benchmark of the served system is perfbench/ (its own module,
// workloads in BENCHMARK.json). `ssabench store import` keeps its results
// in the bench store and `ssabench compare` gates them; the engine's hot
// paths are gated by allocation bounds and golden counts in the tests.
// See README.md and DESIGN.md for the map.
package repro
