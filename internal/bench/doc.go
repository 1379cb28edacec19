// Package bench is the evaluation harness: it regenerates every table and
// figure of the paper's Section IV on the synthetic Table I analog suite,
// and records machine-readable performance baselines so the numbers have a
// trajectory, not just a snapshot.
//
// # Harness
//
// Each Table*/Fig* function (tables.go, figures.go) returns structured
// rows; the Format* helpers (format.go) print them in the paper's layout.
// cmd/mlcg-tables and cmd/mlcg-figures are thin wrappers. Options selects
// the suite slice, repetition count (medians are reported, as in the
// paper), worker count, seed, and scale.
//
// Every timing comes from one of three runners (bench.go). timeCell times
// a coarsening hierarchy: a GC, an untimed warmup, then Options.Runs
// timed runs, of which the run with the median TotalTime is the cell, so
// its map, build and total times come from one run. Every table, figure
// and study column and every recorder row of a hierarchy uses it, so a
// table column and the recorder row of the same cell share one
// definition. timeBisect times a multilevel bisection for Tables V/VI: the
// median cut and the mean time over seeds Seed+r. medianOf times work
// that is not a hierarchy: isolated construction, flat FM, ingest,
// persistence and the telemetry record path.
//
// # Baseline schema (BENCH_*.json)
//
// A Baseline (baseline.go) is one recorded run: a schema version, an
// Environment fingerprint (Go version, GOOS/GOARCH, GOMAXPROCS, CPU
// model, git SHA, hostname), the RunConfig that was measured, and a flat
// list of Metrics. A Metric's identity is
//
//	experiment/instance/mapper/builder/w=N/name
//
// (Metric.Key); its payload is a value, a unit, a Direction — "lower"
// and "higher" metrics gate comparisons, "info" metrics (levels,
// coarsening ratios, obs counters) only describe the run — and optionally
// the raw per-repetition samples. RunBaseline (runner.go) measures an
// instance × mapper × builder × worker-count grid, recording the cell's
// total/map/build times, the Fig 3 coarsening rate (2m+n)/s, and, with
// RunConfig.Counters, the internal/obs counter totals from one extra
// traced repetition (ctr_hash_probes, ctr_cas_retries, ...). Serving and
// embedding throughput are measured by the repository benchmark
// (perfbench/), not here.
//
// Compare (compare.go) pairs two baselines by metric key and classifies
// every delta under per-metric noise thresholds: a relative tolerance
// (default 25%) and an absolute floor for wall times (default 5ms) below
// which deltas are scheduler noise. Metrics new in one file are reported,
// never gated, so a PR can grow the measured slice without failing its
// own gate. cmd/mlcg-bench is the CLI; `make bench-json` records a file
// and `make bench-check` gates against the committed BENCH_baseline.json.
package bench
