# Convenience targets for the rtworm reproduction.

GO ?= go

.PHONY: all build test test-race vet lint lint-fix lint-sarif bench bench-json load-smoke explore-smoke mc-smoke reproduce reproduce-check quick-reproduce fuzz cover clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting drift, the standard vet passes, and the repo's own
# analyzers (see docs/LINTING.md). Any of the three failing fails CI.
lint:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) run ./cmd/rtwlint ./...

# Apply every suggested fix rtwlint knows (today: deleting stale
# //rtwlint:ignore directives); exits non-zero when unfixable findings
# remain. CI runs this and fails if it would produce a diff — fixable
# findings must not be committed.
lint-fix:
	$(GO) run ./cmd/rtwlint -fix ./...

# SARIF 2.1.0 log of the full run, for code-scanning upload. The
# artifact is always written (exit 1 = findings, still a valid log),
# but the exit status is propagated: a crash (exit 2) must fail the
# target instead of silently uploading an empty/partial SARIF.
lint-sarif:
	@status=0; $(GO) run ./cmd/rtwlint -sarif ./... > rtwlint.sarif || status=$$?; \
	if [ "$$status" -ge 2 ]; then echo "rtwlint -sarif failed (exit $$status)"; fi; \
	exit $$status

test:
	$(GO) test ./...

# The full suite under the race detector; the parallel Cal_U pool and
# the simulator are the concurrency-bearing packages this protects.
test-race:
	$(GO) test -race ./...

# Regenerate every table and figure as benchmarks (writes nothing).
bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable benchmark snapshot: the five paper tables plus the
# core-engine micro-benchmarks, five runs each at the default benchtime
# with -benchmem, folded by cmd/benchjson into one JSON entry per
# benchmark (median, min and max of every metric) at the repo root
# (committed; see docs/PERFORMANCE.md for the tracked numbers and how
# to compare).
bench-json:
	$(GO) test -run '^$$' -bench '^(BenchmarkTable[1-5]|BenchmarkCalU|BenchmarkInflate|BenchmarkHPSetConstruction|BenchmarkSimulator|BenchmarkEventSim|BenchmarkMCReplications|BenchmarkAdmitIncremental|BenchmarkAdmitFull|BenchmarkExploreSweep|BenchmarkLintRepo)$$' \
		-count=5 -benchmem . | $(GO) run ./cmd/benchjson -o BENCH_core.json

# Short deterministic load run against a hermetic in-process daemon:
# a fixed seed and rate, chaos kill/restart in the middle, zero error
# and shed budgets, -check gating the exit code. See docs/LOADTEST.md.
load-smoke:
	$(GO) run ./cmd/rtwormload -ops 300 -rate 1000 -seed 1 -clients 6 \
		-chaos -chaos-down 20ms -slo-errors 0 -slo-shed 0 -check -o /dev/null

# Deterministic Monte-Carlo studies on the fast event engine with
# -check cross-checking every replication against the cycle-accurate
# oracle: a small 12-stream study, then two at the paper's section 5
# scale (30000 flit times) — EXPERIMENTS.md's 20-stream study over
# three arbiters and a contended 60-stream, 15-level point. See
# docs/FASTSIM.md.
mc-smoke:
	$(GO) run ./cmd/rtwmc -topology mesh2d-10x10 -streams 12 -plevels 4 \
		-seeds 4 -configs preemptive:2,li:2 -cycles 5000 -warmup 100 \
		-engine event -check
	$(GO) run ./cmd/rtwmc -topology mesh2d-10x10 -streams 20 -plevels 4 \
		-seeds 20 -baseseed 555 -configs preemptive:2,li:2,nonpreemptive-fifo:2 \
		-cycles 30000 -warmup 200 -engine event -check
	$(GO) run ./cmd/rtwmc -topology mesh2d-10x10 -streams 60 -plevels 15 \
		-seeds 4 -baseseed 1 -configs preemptive:2 -cycles 30000 -warmup 200 \
		-engine event -check

# Tiny deterministic design-space smoke: sweep then synthesise an
# 8-point grid with simulator cross-validation. -check fails the target
# unless some sim-validated configuration admits the whole workload.
# The grid is chosen so the buffer-depth axis matters: the origin mesh
# admits the pool analytically at either depth, but only depth 2
# survives validation. See docs/EXPLORER.md.
explore-smoke:
	$(GO) run ./cmd/rtwexplore sweep -streams 12 -plevels 4 -genseed 1 \
		-topos mesh2d-10x10,ring-4 -vcs 1,4 -buffers 1,2 -policies workload \
		-validate -cycles 3000 -check
	$(GO) run ./cmd/rtwexplore synth -streams 12 -plevels 4 -genseed 1 \
		-topos mesh2d-10x10,ring-4 -vcs 1,4 -buffers 1,2 -policies workload \
		-validate -cycles 3000 -check

# Full paper reproduction into out/ (tables, figures+SVG, sweeps,
# crosscheck, summary).
reproduce:
	$(GO) run ./cmd/reproduce -out out

# Regenerate the full reproduction into a temporary directory and fail
# if any file differs from the committed out/ (every table, figure,
# sweep and crosscheck output must be byte-identical).
reproduce-check:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/reproduce -out "$$tmp" >/dev/null && diff -r out "$$tmp" && echo "reproduce-check: out/ is up to date"

quick-reproduce:
	$(GO) run ./cmd/reproduce -out out -quick

# -fuzz takes one target per run, so each pattern is anchored:
# FuzzDiagram alone would also match FuzzDiagramDifferential.
fuzz:
	$(GO) test -run '^$$' -fuzz='^FuzzDiagram$$' -fuzztime=30s ./internal/core/
	$(GO) test -run '^$$' -fuzz='^FuzzDiagramDifferential$$' -fuzztime=30s ./internal/core/
	$(GO) test -run '^$$' -fuzz='^FuzzCalUEarlyExit$$' -fuzztime=30s ./internal/core/
	$(GO) test -run '^$$' -fuzz='^FuzzModifyWideWindows$$' -fuzztime=30s ./internal/core/
	$(GO) test -run '^$$' -fuzz='^FuzzDecodeSet$$' -fuzztime=30s ./internal/stream/

cover:
	$(GO) test -coverprofile=cover.out ./... && $(GO) tool cover -func=cover.out | tail -1

clean:
	rm -rf out cover.out
