# Convenience targets; everything is plain `go` underneath.

GO ?= go

# Pinned lint-tool versions: the single source of truth for CI, which
# installs through the *-install targets below instead of floating on
# whatever happens to be on PATH.
STATICCHECK_VERSION ?= 2025.1
GOVULNCHECK_VERSION ?= v1.1.4

SIMLINT_BIN = bin/simlint

.PHONY: all build test test-short race bench bench-smoke bench-scale bench-pdes bench-compare bench-all trajectory-diff check diffreplay fmt lint simlint simlint-sarif bench-simlint staticcheck-install govulncheck-install fuzz figures results clean FORCE

all: build test

build:
	$(GO) build ./...

test:
	$(GO) vet ./...
	$(GO) test ./...

# The CI gate: formatting, lint, vet, build, the full suite under the
# race detector (the engine tests run with the invariant checker
# enabled; internal/sim's TestScaleSmoke runs a 50k-host world twice —
# sequentially and on the two-lane Time Warp engine, which must agree —
# and the -short suite shrinks it to 5k; the pdes lane/rollback tests
# and the cross-engine equivalence suite ride the same -race run), the
# alloc-regression gates without -race (they skip under it: zero-alloc
# hot paths and O(n) set-up bytes, DESIGN §7; plus the live data path's:
# allocation-free log hand-off, run-length-independent NewCluster), a
# short fuzz smoke of the wire-format decoder, and the bench smokes (one
# iteration at smoke scale: obs overhead must not perturb the trace, and
# every engine must complete the small scale world).
check: fmt lint
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) test -run 'ZeroAlloc|Allocs' ./internal/des ./internal/protocol ./internal/sim ./internal/workload ./internal/storage ./internal/live ./internal/wire
	$(GO) test -fuzz=FuzzFrameRoundTrip -fuzztime=10s ./internal/wire
	$(MAKE) diffreplay
	$(MAKE) bench-smoke

# E24, the sim<->live differential-replay gate: the randomized matrix
# (TP/BCS/QBC x seeds x mobility rates, live recording replayed through
# the deterministic engine, decision logs held byte-identical) runs
# under the race detector, then the CLI round-trip is smoked — a live
# run recorded by examples/live must replay clean through mhsim, and a
# perturbed replay must make the differ exit non-zero (the gate has to
# be able to fail to prove it gates anything).
diffreplay:
	$(GO) test -race -run 'TestDifferentialReplay' ./internal/replaycmp/
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./examples/live -record "$$tmp/run.bundle.json" -protocol TP -seed 3 > /dev/null; \
	$(GO) run ./cmd/mhsim -replay-schedule "$$tmp/run.bundle.json" -checks; \
	if $(GO) run ./cmd/mhsim -replay-schedule "$$tmp/run.bundle.json" -replay-perturb 0 > /dev/null 2>&1; then \
		echo "diffreplay: perturbed replay did not fail — the gate is broken"; exit 1; \
	else \
		echo "diffreplay: perturbed replay correctly rejected"; fi

# Fail if any file is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# simlint is the in-tree analysis suite (internal/analysis): detlint,
# maporder, poollint, schedlint, plus the concurrency-contract
# analyzers guardlint, lanelint and problint. It is built from the
# tree, so it is a hard gate everywhere — offline and in CI — and
# needs no installation. Driving it through `go vet -vettool` (rather
# than standalone mode) analyzes test files too and caches per-package
# results. SIMLINT_BASELINE absorbs the findings recorded in
# simlint.baseline (fingerprinted by analyzer/package/message, so
# refactors don't churn it); the file is empty today — keep it so.
$(SIMLINT_BIN): FORCE
	@mkdir -p $(dir $(SIMLINT_BIN))
	$(GO) build -o $(SIMLINT_BIN) ./cmd/simlint

simlint: $(SIMLINT_BIN)
	SIMLINT_BASELINE=$(CURDIR)/simlint.baseline \
		$(GO) vet -vettool=$(CURDIR)/$(SIMLINT_BIN) ./...

# One standalone whole-repo pass that also writes the surviving
# findings as a SARIF 2.1.0 log, for CI code-scanning upload.
simlint-sarif: $(SIMLINT_BIN)
	@mkdir -p results
	$(CURDIR)/$(SIMLINT_BIN) -C $(CURDIR) -baseline simlint.baseline \
		-sarif results/simlint.sarif ./...

# Time one standalone whole-repo simlint pass (all seven analyzers,
# baseline applied) and record it as a bench artifact, so the analysis
# gate's wall time rides results/TRAJECTORY.json like any other perf
# metric and a pathological slowdown shows up in trajectory-diff.
bench-simlint: $(SIMLINT_BIN)
	@set -e; \
	start=$$(date +%s.%N); \
	$(CURDIR)/$(SIMLINT_BIN) -C $(CURDIR) -baseline simlint.baseline ./... ; \
	end=$$(date +%s.%N); \
	secs=$$(awk "BEGIN{printf \"%.3f\", $$end - $$start}"); \
	printf '{\n  "benchmark": "simlint",\n  "analyzers": 7,\n  "wall_seconds": %s\n}\n' "$$secs" \
		> results/BENCH_simlint.json; \
	echo "simlint whole-repo pass: $$secs s -> results/BENCH_simlint.json"

# lint = simlint (hard gate) + staticcheck when present. staticcheck is
# a third-party module the offline build cannot fetch, so locally a
# missing binary only downgrades the gate; CI installs the pinned
# version via staticcheck-install and then this same target runs it.
lint: simlint
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (simlint+vet+gofmt still gate)"; fi

# CI helpers: install the pinned tool versions declared at the top of
# this file (network required).
staticcheck-install:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)

govulncheck-install:
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

FORCE:

# One smoke iteration of the obs-overhead benchmark and of the engine
# sweep (-short shrinks the horizon and keeps only the smallest world);
# the full baselines live in results/BENCH_obs.json and
# results/BENCH_pdes.json.
bench-smoke:
	$(GO) test -short -run '^$$' -bench 'BenchmarkObsOverhead|BenchmarkPDES' -benchtime 1x .

# The bench trajectory: smoke the benches, then canonicalize every
# committed results/BENCH_*.json artifact into one point of
# results/TRAJECTORY.json for this commit. benchdiff itself never
# reads git or a wall clock — all run metadata is observed here, in
# the shell, so the tool stays deterministic and testable. Re-running
# on the same commit replaces that commit's point (idempotent).
bench-all: bench-smoke
	$(GO) build -o bin/benchdiff ./cmd/benchdiff
	bin/benchdiff record -dir results -out results/TRAJECTORY.json \
		-sha "$$(git rev-parse --short HEAD)" \
		-date "$$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
		-goos "$$($(GO) env GOOS)" -goarch "$$($(GO) env GOARCH)" \
		-cpu "$$(awk -F': ' '/model name/{print $$2; exit}' /proc/cpuinfo 2>/dev/null)" \
		-numcpu "$$(getconf _NPROCESSORS_ONLN)" \
		-gomaxprocs "$$(getconf _NPROCESSORS_ONLN)"

# Compare the two newest trajectory points; exits non-zero when a perf
# metric regressed past the fail threshold. CI runs this non-blocking
# (the committed BENCH artifacts are only refreshed on bench machines,
# so consecutive points can span different hardware).
trajectory-diff:
	$(GO) build -o bin/benchdiff ./cmd/benchdiff
	bin/benchdiff diff -file results/TRAJECTORY.json

# The engine-throughput sweep: sequential vs conservative vs Time Warp
# over 1e4..1e6 hosts in the E21 scale environment, written to
# results/BENCH_pdes.json (the committed artifact). The engines are
# bit-identical — this measures wall clock only. Takes minutes and a few
# GB of RSS at the million-host points.
bench-pdes:
	BENCH_PDES_OUT=$(CURDIR)/results/BENCH_pdes.json \
		$(GO) test -run '^$$' -bench BenchmarkPDES -benchtime 1x -timeout 60m .

# E21: the scale sweep n = 10 → 1e6 on the calendar queue, writing
# results/BENCH_scale.json (N_tot rate, piggyback bytes/msg, events/sec,
# peak RSS per decade). Takes minutes and peaks at a few GB of RSS at
# the million-host point. SCALE_MAX trims the sweep for quick looks:
#
#   make bench-scale SCALE_MAX=100000
SCALE_MAX ?= 1000000
bench-scale:
	$(GO) run ./cmd/figures -scale -scalemax $(SCALE_MAX) -queue calendar -out results

# Hot-path benchmark comparison against another git ref (default: the
# previous commit). Runs BenchmarkEngine and BenchmarkFigure1 on both
# builds, then reports with benchstat when installed and with a raw
# side-by-side dump otherwise. The reference numbers for the pooling
# pass live in results/BENCH_hotpath.json.
#
#   make bench-compare             # vs HEAD~1
#   make bench-compare OLD=v1.0    # vs any ref
OLD ?= HEAD~1
BENCH_PAT = BenchmarkEngine$$|BenchmarkFigure1$$
bench-compare:
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	echo "== new ($$(git rev-parse --short HEAD)$$(git diff --quiet || echo +dirty)) =="; \
	$(GO) test -run '^$$' -bench '$(BENCH_PAT)' -benchmem -benchtime 2x -count 5 . | tee "$$tmp/new.txt"; \
	git worktree add --detach "$$tmp/old" $(OLD) >/dev/null; \
	echo "== old ($(OLD)) =="; \
	( cd "$$tmp/old" && $(GO) test -run '^$$' -bench '$(BENCH_PAT)' -benchmem -benchtime 2x -count 5 . ) | tee "$$tmp/old.txt"; \
	git worktree remove --force "$$tmp/old" >/dev/null; \
	if command -v benchstat >/dev/null 2>&1; then \
		benchstat "$$tmp/old.txt" "$$tmp/new.txt"; \
	else \
		echo; echo "benchstat not installed; raw results above (old, then new):"; \
		grep '^Benchmark' "$$tmp/old.txt" | sed 's/^/  old /'; \
		grep '^Benchmark' "$$tmp/new.txt" | sed 's/^/  new /'; \
	fi

# Longer fuzzing session for local use.
fuzz:
	$(GO) test -fuzz=FuzzFrameRoundTrip -fuzztime=2m ./internal/wire

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./internal/live/ ./internal/des/... ./internal/pdes/ ./internal/sim/

bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every table under results/ at full scale (several minutes).
results:
	$(GO) run ./cmd/figures -seeds 3 -out results
	$(GO) run ./cmd/figures -gains -seeds 3 -out results
	$(GO) run ./cmd/figures -overhead -seeds 3 -out results
	$(GO) run ./cmd/figures -gc -seeds 3 -out results
	$(GO) run ./cmd/figures -contention -seeds 3 -out results
	$(GO) run ./cmd/figures -scalability -seeds 3 -out results
	$(GO) run ./cmd/figures -proxy -seeds 3 -out results
	$(GO) run ./cmd/figures -joins -seeds 3 -out results
	$(GO) run ./cmd/figures -replay -seeds 3 -horizon 20000 -out results
	$(GO) run ./cmd/figures -cause -seeds 3 -out results
	$(GO) run ./cmd/recovery -seeds 3 -horizon 20000 -out results > /dev/null

clean:
	$(GO) clean ./...
