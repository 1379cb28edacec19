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
//     The orchestrating goroutine opens spans with StartKernel/Done; the
//     parallel runtime (internal/par) reports each worker's busy time into
//     the ambient span automatically.
//   - Named atomic counters (Counter) for the hot-path events that exist in
//     the algorithms but were previously uncounted: CAS retries in the
//     reservation rounds, suitor spin iterations, epoch-hash probes and
//     collisions, radix-sort passes, workspace bytes reused vs. allocated.
//   - Exporters: a Chrome trace_event-compatible JSON trace (export.go), a
//     flat text metrics dump, and pprof labels on worker goroutines (applied
//     by internal/par when a trace is active).
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
// Tracing is off unless a Trace is bound to the calling goroutine. Every
// entry point a hot path can reach begins with a single atomic load of the
// process-wide bound-trace count and a nil check: no allocation, no atomic
// read-modify-write, no lock. Only when at least one trace is live
// anywhere does a call resolve the calling goroutine's id and consult the
// sharded goroutine→trace registry. TestObsDisabledZeroAlloc proves the
// allocation claim with testing.AllocsPerRun; BenchmarkObsOverhead (in
// internal/coarsen) bounds the throughput delta of the instrumented
// disabled path.
//
// # The flush rule
//
// Resolving a goroutine is the expensive step of the enabled path: the id
// comes from runtime.Stack, which formats the goroutine's frames under
// the runtime's print lock (about 13 µs of CPU per call in a profile of
// traced two-worker builds of serve-mixed's base graph). So lookups happen
// only at span boundaries — a StartKernel, one Ambient per parallel call
// in internal/par, one Attach per spawned worker — and never per chunk
// or per segment:
//
//   - A kernel keeps the span StartKernel returned on the orchestrating
//     goroutine, and its worker bodies flush their per-chunk counts with
//     Span.Add on that span.
//   - Counts gathered below a chunk, such as the radix passes of
//     per-segment sorts (par.SortScratch.TakePasses), accumulate in the
//     caller's scratch and are flushed once per chunk or per call.
//   - The package-level Add is for an orchestrator's once-per-call flush;
//     it returns on a zero delta before resolving anything.
//
// A package-level call inside a par worker still lands on the ambient
// span, because par attaches each worker to the trace; the rule is about
// cost, not correctness. TestTracedRunLookups caps the lookups of a
// traced serve-shaped build, and TestLookupsIndependentOfSortedSegments
// fails if they grow with the number of radix-sorted segments.
//
// # Concurrency model
//
// Traces are goroutine-scoped, not process-global: the package-level
// helpers (StartKernel, Add, Ambient, Enabled) resolve to the trace bound
// to the *calling goroutine*, so any number of traced runs — e.g.
// concurrent requests inside mlcg-serve — proceed independently, each
// building its own laminar span tree. StartTrace creates a trace and
// binds the calling goroutine (returning nil only if that goroutine is
// already tracing); NewTrace creates an unbound trace that a different
// goroutine attaches with Attach, typically carried there inside a
// context.Context via NewContext/TraceFromContext.
//
// Within one trace, the ambient span stack (StartKernel/Done) is
// manipulated only by the orchestrating goroutine — the one that calls
// the par primitives, never from inside a parallel region. Worker
// goroutines concurrently *report into* the current span (BusyAdd, Add,
// Child), which is safe: busy slots and counters are atomic adds, and
// child-span creation takes the span's mutex. internal/par binds each
// worker goroutine to the spawning run's trace for the duration of a
// parallel loop, so a package-level call inside a worker closure reaches
// the correct trace even with many traced runs in flight.
package obs
