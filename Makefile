# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race test-determinism lint fuzz fuzz-smoke bench bench-construct bench-mis2 bench-json bench-check bench-baseline serve-smoke embed-smoke metrics-lint fmt-spec-check tables figures trace verify clean

# Prometheus exposition file checked by `make metrics-lint` — the default
# is where scripts/serve-smoke.sh leaves its /metrics scrape.
METRICS_FILE ?= /tmp/mlcg-metrics.prom

all: build test

build:
	$(GO) build ./...

test:
	$(GO) vet ./...
	$(GO) test ./...

# The explicit timeout is for internal/coarsen: under -race its suite took
# 821 s of a 1337 s full run on a 2-core host, past go test's default
# 10-minute per-package limit.
race:
	$(GO) test -race -timeout 30m ./...

# Cross-worker determinism gate: the canonical-ID guarantee (byte-identical
# mappings, coarse graphs, hierarchies, and embeddings at p = 1, 2, 4, 8)
# checked with enough OS threads that the p = 8 runs actually interleave,
# plus the coarse-graph invariant harness (every mapper × builder × worker
# count), the SGD trainer's schedule-independence sweep, and multilevel
# spectral and FM bisection and recursive k-way FM (same partition and cut
# at every worker count), Louvain and multilevel clustering (same labels, K
# and bit-identical modularity), and graph
# ingest (StreamEdges and the CSR kernel bit-identical to the global-sort
# reference), and the SGD trainer against its reference trainer at every
# worker count, and the serving layer (every response of an ingest, build
# and query sequence byte-identical, timings aside, at every Workers ×
# BuildWorkers setting; served cut, imbalance and modularity equal to the
# level-0 formula, after a warm restart too and under a cold concurrent
# start), with the projection identities those answers rest on. The
# embed, partition, cluster, graph and serve
# sweeps additionally run under -race (they are cheap enough); the full
# coarsen suite keeps its race coverage in `make race` where the
# per-package timeout budget is not shared with a p=8 interleaving sweep.
test-determinism:
	GOMAXPROCS=8 $(GO) test -run 'Determinism|Deterministic|Canonicalize|CoarseInvariants|WorkspaceReuse' ./internal/par/... ./internal/coarsen/...
	GOMAXPROCS=8 $(GO) test -race -run 'Determinism|SeedSensitivity|WorkspaceReuse|MatchesReference' ./internal/embed/...
	GOMAXPROCS=8 $(GO) test -race -run 'Determinism|Deterministic|ProjectionIdentities' ./internal/partition/... ./internal/cluster/...
	GOMAXPROCS=8 $(GO) test -race -run 'Determinism|MatchLevelZero|ColdConcurrent' ./internal/graph/... ./internal/serve/...

# Static analysis: vet always; staticcheck when it is installed (the
# pinned dev container has no network to fetch it, CI installs it).
lint:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipped (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# Short fuzz pass over every parser target.
fuzz:
	$(GO) test -fuzz=FuzzReadEdgeList -fuzztime=30s -run=Fuzz ./internal/graph/
	$(GO) test -fuzz=FuzzReadMetis -fuzztime=30s -run=Fuzz ./internal/graph/
	$(GO) test -fuzz=FuzzReadBinary -fuzztime=30s -run=Fuzz ./internal/graph/
	$(GO) test -fuzz=FuzzCSRFromEdges -fuzztime=30s -run=Fuzz ./internal/graph/
	$(GO) test -fuzz=FuzzStreamEdges -fuzztime=30s -run=Fuzz ./internal/graph/
	$(GO) test -fuzz=FuzzMIS2Fast -fuzztime=30s -run=Fuzz ./internal/coarsen/
	$(GO) test -fuzz=FuzzProjectToFine -fuzztime=30s -run=Fuzz ./internal/coarsen/
	$(GO) test -fuzz=FuzzBuildersAgree -fuzztime=30s -run=Fuzz ./internal/coarsen/
	$(GO) test -fuzz=FuzzHierFmtLoad -fuzztime=30s -run=Fuzz ./internal/hierfmt/
	$(GO) test -fuzz=FuzzFiedlerMatchesReference -fuzztime=30s -run=Fuzz ./internal/partition/
	$(GO) test -fuzz=FuzzRefineFMMatchesReference -fuzztime=30s -run=Fuzz ./internal/partition/
	$(GO) test -fuzz=FuzzTrainerMatchesReference -fuzztime=30s -run=Fuzz ./internal/embed/
	$(GO) test -fuzz=FuzzServeHandlers -fuzztime=30s -run=Fuzz ./internal/serve/

# The CI slice of `fuzz`: 20s per target on the structured-input targets
# (CSR construction, StreamEdges against ReadEdgeList, the versioned
# hierarchy container, the mis2fast worklist kernel's
# D2-independence/maximality invariants, hierarchy
# projection over hostile level maps, every builder's agreement with the
# P·A·Pᵀ reference over hostile mappings, the matrix-free Fiedler solvers'
# bit-identity to their explicit-Laplacian reference, FM refinement's
# identity to its per-pass reference, the SGD trainer's bit-identity
# to its per-slot delta reference, and the serve handlers, which must
# answer every hostile ingest body and request JSON with a 2xx or a
# non-500 JSON error).
fuzz-smoke:
	$(GO) test -fuzz=FuzzCSRFromEdges -fuzztime=20s -run=Fuzz ./internal/graph/
	$(GO) test -fuzz=FuzzStreamEdges -fuzztime=20s -run=Fuzz ./internal/graph/
	$(GO) test -fuzz=FuzzMIS2Fast -fuzztime=20s -run=Fuzz ./internal/coarsen/
	$(GO) test -fuzz=FuzzProjectToFine -fuzztime=20s -run=Fuzz ./internal/coarsen/
	$(GO) test -fuzz=FuzzBuildersAgree -fuzztime=20s -run=Fuzz ./internal/coarsen/
	$(GO) test -fuzz=FuzzHierFmtLoad -fuzztime=20s -run=Fuzz ./internal/hierfmt/
	$(GO) test -fuzz=FuzzFiedlerMatchesReference -fuzztime=20s -run=Fuzz ./internal/partition/
	$(GO) test -fuzz=FuzzRefineFMMatchesReference -fuzztime=20s -run=Fuzz ./internal/partition/
	$(GO) test -fuzz=FuzzTrainerMatchesReference -fuzztime=20s -run=Fuzz ./internal/embed/
	$(GO) test -fuzz=FuzzServeHandlers -fuzztime=20s -run=Fuzz ./internal/serve/

# End-to-end smoke of the mlcg-serve daemon over a real socket: start,
# ingest, build, query, scrape /metrics (left at $(METRICS_FILE)), lint
# the exposition, check /debug/requests and the structured logs, SIGTERM
# graceful drain — then warm-restart a second instance on the same
# -cache-dir and prove it serves the build and query from disk.
serve-smoke:
	./scripts/serve-smoke.sh

# End-to-end smoke of the embedding pipeline: train through the coarsening
# hierarchy on a generated instance, hold out edges and report the
# link-prediction AUC, write the .mlcgemb sidecar — then reload it into a
# fresh process and prove the saved bytes evaluate identically.
embed-smoke:
	$(GO) run ./cmd/mlcg-embed -gen rgg -dim 16 -epochs 8 -negatives 3 \
		-eval -out /tmp/mlcg-embed.mlcgemb
	$(GO) run ./cmd/mlcg-embed -gen rgg -load /tmp/mlcg-embed.mlcgemb -eval

# Strict Prometheus text-exposition lint of a /metrics scrape (HELP/TYPE
# pairing, name charset, histogram bucket monotonicity, duplicates).
metrics-lint:
	$(GO) run ./cmd/mlcg-tracecheck -prom $(METRICS_FILE)

# Validate docs/FORMAT.md against the writer: the spec's worked-example
# hexdump must match the bytes hierfmt actually produces, byte for byte.
fmt-spec-check:
	$(GO) test -run 'TestFormatSpec' -count=1 ./internal/hierfmt/

bench:
	$(GO) test -bench=. -benchmem ./...

# Head-to-head D2-MIS mapper cells (mis2 vs mis2fast on the fast slice,
# including the explicit p=1/p=8 mapcompare rows the speedup claim in
# docs/CLAIMS.md is pinned by).
bench-mis2:
	$(GO) run ./cmd/mlcg-bench -suite fast -runs 5 -mappers mis2,mis2fast \
		-out /tmp/mlcg-bench-mis2.json \
		-sha "$$(git rev-parse HEAD 2>/dev/null || echo '')"
	$(GO) test -run='^$$' -bench='BenchmarkMapMIS2' -benchmem ./internal/coarsen/

# Isolated coarse-graph construction benchmark (the two-phase scatter /
# workspace path). `-count=10` gives benchstat enough samples to compare
# against a baseline checkout.
bench-construct:
	$(GO) test -run='^$$' -bench=BenchmarkBuildConstruct -benchmem -count=10 .
	$(GO) run ./cmd/mlcg-tables -construct -runs 7 -metrics

# Record a machine-readable baseline of the fast suite slice as
# BENCH_<sha>.json (the schema lives in internal/bench/baseline.go).
bench-json:
	$(GO) run ./cmd/mlcg-bench -suite fast -runs 5 \
		-sha "$$(git rev-parse HEAD 2>/dev/null || echo '')"

# Record a fresh fast-slice run and gate it against the committed
# baseline: exits non-zero when a gated metric regressed past tolerance.
bench-check:
	$(GO) run ./cmd/mlcg-bench -suite fast -runs 5 -out /tmp/mlcg-bench-new.json \
		-sha "$$(git rev-parse HEAD 2>/dev/null || echo '')"
	$(GO) run ./cmd/mlcg-bench -compare BENCH_baseline.json /tmp/mlcg-bench-new.json

# Regenerate the committed baseline (run on a quiet machine; see the
# benchmark policy in CONTRIBUTING.md before committing the result).
bench-baseline:
	$(GO) run ./cmd/mlcg-bench -suite fast -runs 5 -out BENCH_baseline.json \
		-sha "$$(git rev-parse HEAD 2>/dev/null || echo '')"

# Kernel-level trace of a representative coarsening run: writes a Chrome
# trace_event file (load it at chrome://tracing or https://ui.perfetto.dev),
# prints the metrics dump, and validates the trace structure. The
# one-worker run takes the auto policy's serial globalsort branch, whose
# build must open kernel spans too. The embedding trace (GOSH coarsening,
# then embed:level/train/project spans), the FM and spectral bisection
# traces and the recursive k-way FM trace (coarsening, then
# fm:level/spectral:level spans) are checked the same way.
trace:
	$(GO) run ./cmd/mlcg-coarsen -gen rmat -trace /tmp/mlcg-trace.json -metrics
	$(GO) run ./cmd/mlcg-tracecheck -coarsen /tmp/mlcg-trace.json
	$(GO) run ./cmd/mlcg-coarsen -gen rmat -workers 1 -trace /tmp/mlcg-trace-serial.json
	$(GO) run ./cmd/mlcg-tracecheck -coarsen /tmp/mlcg-trace-serial.json
	$(GO) run ./cmd/mlcg-embed -gen rgg -epochs 4 -trace /tmp/mlcg-trace-embed.json
	$(GO) run ./cmd/mlcg-tracecheck -coarsen /tmp/mlcg-trace-embed.json
	$(GO) run ./cmd/mlcg-partition -gen trimesh -method fm -trace /tmp/mlcg-trace-fm.json
	$(GO) run ./cmd/mlcg-partition -gen trimesh -method spectral -trace /tmp/mlcg-trace-spectral.json
	$(GO) run ./cmd/mlcg-partition -gen trimesh -k 4 -trace /tmp/mlcg-trace-kway.json
	$(GO) run ./cmd/mlcg-tracecheck -coarsen /tmp/mlcg-trace-fm.json /tmp/mlcg-trace-spectral.json /tmp/mlcg-trace-kway.json

# Regenerate the paper's tables and figures (writes to stdout).
tables:
	$(GO) run ./cmd/mlcg-tables -all -runs 5

figures:
	$(GO) run ./cmd/mlcg-figures -all -runs 5

# The full verification ladder used before a release.
verify: build test race
	gofmt -l . | tee /dev/stderr | wc -l | grep -q '^0$$'

clean:
	$(GO) clean ./...
