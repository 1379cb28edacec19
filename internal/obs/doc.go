// Package obs is the kernel-level tracing and runtime-metrics layer of the
// module. It gives every coarsening run the lens the paper's evaluation is
// built on — *where the time goes* — at the granularity the whole-table
// benchmarks cannot see: per mapping pass, per construction phase, per
// parallel kernel, per worker.
//
// The layer has three pieces:
//
//   - Hierarchical spans (run → level → phase → kernel) carrying wall time
//     plus per-worker busy time, so load imbalance is computable per kernel.
//     Kernels open spans with Span.Child/End under the span their caller
//     handed them; the parallel runtime (internal/par) charges each
//     worker's busy time to the span in the loop's par.Exec handle.
//   - Named atomic counters (Counter) for the hot-path events that exist in
//     the algorithms but were previously uncounted: CAS retries in the
//     reservation rounds, epoch-hash probes and collisions, radix-sort
//     passes, workspace bytes reused vs. allocated.
//   - Exporters: a Chrome trace_event-compatible JSON trace (export.go), a
//     flat text metrics dump, and pprof labels on worker goroutines (applied
//     by internal/par when a loop carries a span).
//
// # Span hierarchy
//
// A coarsening run produces the tree
//
//	run                      (StartTrace root; one per tool invocation)
//	└── level <i>            one per hierarchy level, from Coarsener.Run
//	    ├── map:<mapper>     the mapping phase
//	    │   └── <kernel>...  e.g. hec:setup, hec:pass
//	    └── build:<builder>  the construction phase
//	        └── <kernel>...  e.g. cons:count, cons:scatter, dedup:sort
//
// cmd/mlcg-tracecheck validates this structure (well-formed events,
// laminar nesting); coarsen.LevelStats.Span keeps a pointer to each
// level's span so callers can drill in without walking the whole tree.
//
// # Consumers
//
// Besides the -trace/-metrics flags on every tool (internal/cli.StartObs),
// the benchmark-baseline runner (internal/bench.RunBaseline) wraps one
// repetition per measured combination in a trace and records the
// subtree-aggregated counter totals (Span.Counters) as ctr_* metrics in
// BENCH_*.json files, so counter drift — more hash probes, more CAS
// retries — shows up in baseline comparisons alongside wall times.
//
// # Zero overhead when disabled
//
// Tracing is off when the span a kernel is handed is nil. Every method a
// hot path can reach (Child, End, Add, BusyAdd) begins with a nil check
// and returns: no allocation, no atomic read-modify-write, no lock.
// Public entry points read Ambient once, which is one atomic load of the
// tool-trace pointer. TestObsDisabledZeroAlloc proves the allocation
// claim with testing.AllocsPerRun; BenchmarkObsOverhead (in
// internal/coarsen) measures the disabled and enabled paths.
//
// # The flush rule
//
// Nothing is looked up on the enabled path either: a span travels as a
// pointer, from wherever a trace starts down to every par loop. What
// costs is what a kernel creates — a span per open, an atomic add per
// counter flush — so those happen at kernel boundaries and once per
// parallel chunk, never per element or per segment:
//
//   - A kernel opens its span with Child on the span it was handed, gives
//     its loops par.Exec{P: ex.P, Span: child} (par.Exec.Kernel does
//     both), and its worker bodies flush their per-chunk counts with
//     Span.Add on that span.
//   - Counts gathered below a chunk, such as the radix passes of
//     per-segment sorts (par.SortScratch.TakePasses), accumulate in the
//     caller's scratch and are flushed once per chunk or per call.
//
// TestTracedBuildAllocsIndependentOfSortedSegments fails if a traced sort
// build allocates more for more radix-sorted segments.
//
// # Concurrency model
//
// A trace is reached only through the spans handed to the work. NewTrace
// creates one; the caller passes its Root (or a span below it) down
// explicitly — an options field such as partition.KWayOptions.Span, or a
// context built with NewContext/ContextWithSpan for Coarsener.RunCtx — so
// any number of traced runs, such as concurrent requests inside
// mlcg-serve, proceed independently, each building its own laminar span
// tree. Nothing is bound to a goroutine.
//
// One trace per process may be the tool trace: StartTrace creates it (and
// returns nil while another is running), and the package-level
// StartKernel, Done and Ambient act on its span stack. It serves
// single-goroutine tools — the CLIs' -trace/-metrics flags and the
// benchmark recorder — whose public library calls read Ambient once and
// pass the result down; library code never pushes onto the stack.
//
// Within one trace, worker goroutines concurrently *report into* the span
// their loop was handed (BusyAdd, Add, Child), which is safe: busy slots
// and counters are atomic adds, and child-span creation takes the span's
// mutex.
package obs
