# Convenience targets; everything is plain `go` underneath.

GO ?= go

# Pinned lint-tool versions: the single source of truth for CI, which
# installs through the *-install targets below instead of floating on
# whatever happens to be on PATH.
STATICCHECK_VERSION ?= 2025.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build test test-short check vet test-race interleave-gate allocs fuzz-smoke diffreplay results-check bench-gate fmt lint simlint staticcheck-install govulncheck-install fuzz bench bench-scale results lines clean FORCE

all: build test

build:
	$(GO) build ./...

test:
	$(GO) vet ./...
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The CI gate, each piece once; CI calls the same targets one step each.
# (The repository benchmark's smoke and goldens ride `go test ./...`;
# bench-gate runs it at full size.)
check: fmt lint vet test-race interleave-gate allocs fuzz-smoke diffreplay results-check bench-gate

# vet also holds rng.Exp's logarithm to the same bits on every GOARCH: the
# arm64 build and the amd64 v3 build (the targets where a compiler may fuse
# a product into the sum it feeds) must disassemble to code for
# rng.logUnit with no fused multiply-add in it.
vet:
	$(GO) vet ./...
	$(GO) build ./...
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for target in GOARCH=arm64 GOAMD64=v3; do \
		env $$target $(GO) test -c -o "$$tmp/rng.test" ./internal/rng; \
		$(GO) tool objdump -s 'rng\.logUnit$$' "$$tmp/rng.test" > "$$tmp/log.s"; \
		if ! [ -s "$$tmp/log.s" ]; then echo "vet: no rng.logUnit in the $$target build"; exit 1; fi; \
		if grep -E 'FMADD|FMSUB|FNMADD|FNMSUB' "$$tmp/log.s"; then \
			echo "vet: rng.logUnit fuses a multiply-add in the $$target build"; exit 1; fi; \
	done; \
	echo "vet: rng.logUnit has no fused multiply-add on arm64 or amd64 v3"

# The full suite under the race detector: the pdes lane tests, the
# cross-engine equivalence suite, the parallel sweeps and TestScaleSmoke
# (50k hosts, sequential vs two lanes) all ride this one run; the
# protocols keep no atomics, so it is the race detector that holds the
# lane suites' protocol side to the coordinator. Then internal/live and
# internal/statestore three more times: the live hosts are goroutines
# under a bounded-skew gate, whose lost-raise and missed-joiner races
# only the race detector's slower interleavings expose, and each host
# builds its checkpoint images in the one station group on its own
# goroutine; a race that needs an unlucky interleaving does not show in
# a single pass. The same goes for the engine's protocol side, which
# runs on a consumer goroutine beside the sequential world and on the
# lane engine's coordinator: its pipeline tests (pipelined equals
# in-line, a consumer panic re-raised on Run's goroutine, no goroutine
# left behind, the protocol side on one goroutine at a time on both
# engines, and the side's in-flight table against the history and the
# network sequentially and at 2 and 4 lanes) run three more times too.
# TestInFlightParity runs whole: a -run pattern cannot pick one test's
# subtests without filtering the others', and its live and replay half
# takes milliseconds.
SIM_PIPELINE_TESTS = TestPipeline|TestRunPanicFromProtocolSide|TestRunLeavesNoGoroutine|TestProtocolSideOneGoroutine|TestInFlightParity

test-race:
	$(GO) test -race ./...
	$(GO) test -race -count=3 ./internal/live ./internal/statestore
	$(GO) test -race -count=3 -run '$(SIM_PIPELINE_TESTS)' ./internal/sim

# The packages whose tests run goroutines the scheduler interleaves —
# the live cluster, the station group its hosts share, the differential
# replay of its recordings, and the engine's world, lane and
# protocol-side goroutines (the internal/sim pipeline tests) — must
# pass whatever the interleaving: thirty passes at GOMAXPROCS 1, 2 and 4,
# while the internal/sim suite runs over and over beside them as a CPU
# hog. A live test that fails anyway names the bundle that replays its run.
interleave-gate:
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) test -c -o "$$tmp/hog.test" ./internal/sim; \
	touch "$$tmp/hog"; \
	(cd internal/sim && while [ -e "$$tmp/hog" ]; do "$$tmp/hog.test" -test.count=1 > /dev/null 2>&1 || true; done) & hog=$$!; \
	status=0; $(GO) test -count=30 -cpu 1,2,4 -timeout 60m ./internal/live ./internal/statestore ./internal/replaycmp || status=$$?; \
	if [ $$status -eq 0 ]; then $(GO) test -count=30 -cpu 1,2,4 -timeout 30m -run '$(SIM_PIPELINE_TESTS)' ./internal/sim || status=$$?; fi; \
	rm -f "$$tmp/hog"; wait $$hog; exit $$status

# The alloc-regression gates (DESIGN §7) skip under -race, whose
# instrumentation allocates, so they get their own plain run: every
# package's, picked by name, so a new gate cannot be left out.
allocs:
	$(GO) test -run 'ZeroAlloc|Allocs' ./...

# A short fuzz smoke of the two parsers of outside input — wire frames and
# the bundles of recorded schedules `mhsim -replay-schedule` reads, whose
# schedule section is also fuzzed on its own — of the replay of every schedule the parser accepts, of the recovery
# propagation against its full-scan reference on traces and cuts the
# fuzzer picks, and of the workload driver's in-line operations against
# the same driver with every operation an event, on worlds the fuzzer
# picks, of sim.Run on small configurations the fuzzer picks (a
# rejected one returns Validate's error, an accepted one runs with its
# checks on), and of the collection rule (a collecting run restores its
# uncollected twin's recovery lines and replays what the trace says), and
# of the chunked run history against a flat reference on event sequences
# the fuzzer picks; `make fuzz` runs longer. The schedule and bundle seeds
# are tens of kilobytes of JSON, which the fuzzer's default minute of
# minimization per finding would spend the whole smoke on, so that is
# capped in runs; the history's event sequences are capped alike.
# fuzz-targets runs every fuzz target for $(1) each: one list for both.
define fuzz-targets
$(GO) test -fuzz=FuzzFrameRoundTrip -fuzztime=$(1) ./internal/wire
$(GO) test -fuzz=FuzzImportSchedule -fuzztime=$(1) -fuzzminimizetime=10x ./internal/trace
$(GO) test -fuzz=FuzzHistory -fuzztime=$(1) -fuzzminimizetime=10x ./internal/trace
$(GO) test -fuzz=FuzzImportBundle -fuzztime=$(1) -fuzzminimizetime=10x ./internal/replaycmp
$(GO) test -fuzz=FuzzReplaySchedule -fuzztime=$(1) -fuzzminimizetime=10x ./internal/sim
$(GO) test -fuzz=FuzzPropagate -fuzztime=$(1) ./internal/recovery
$(GO) test -fuzz=FuzzDriverInline -fuzztime=$(1) ./internal/workload
$(GO) test -fuzz=FuzzConfig -fuzztime=$(1) ./internal/sim
$(GO) test -fuzz=FuzzCollect -fuzztime=$(1) ./internal/sim
endef

fuzz-smoke:
	$(call fuzz-targets,10s)

fuzz:
	$(call fuzz-targets,2m)

# E24, the sim<->live differential-replay gate: the randomized matrix
# under the race detector (decision logs, log counters, and — since both
# worlds drive one protocol side — the live and replayed timelines and
# metrics, byte for byte; and, E33, every host's live failure restoring
# the recovery line E8's analysis of the replay derives, with and without
# a log: TestDifferentialReplayRecovery), the same gate on engine recordings (an engine
# run's exported history replays to the engine's own checkpoint chains and
# trace counts, and a logged one to its log counters), then the CLI round-trip — a run recorded by
# examples/live must replay clean through mhsim with its instruments on
# (the timeline file has to appear), and a perturbed replay must fail (a
# gate has to be able to fail to prove it gates anything).
diffreplay:
	$(GO) test -race -run 'TestDifferentialReplay' ./internal/replaycmp/
	$(GO) test -race -run TestEngineHistoryReplays ./internal/sim
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./examples/live -record "$$tmp/run.bundle.json" -protocol TP -seed 3 > /dev/null; \
	$(GO) run ./cmd/mhsim -replay-schedule "$$tmp/run.bundle.json" -checks -timeline "$$tmp/t.json" -metrics > "$$tmp/replay.out"; \
	head -2 "$$tmp/replay.out"; \
	if ! [ -s "$$tmp/t.json" ]; then \
		echo "diffreplay: the replay wrote no timeline — -timeline is being ignored"; exit 1; fi; \
	if $(GO) run ./cmd/mhsim -replay-schedule "$$tmp/run.bundle.json" -replay-perturb 0 > /dev/null 2>&1; then \
		echo "diffreplay: perturbed replay did not fail — the gate is broken"; exit 1; \
	else \
		echo "diffreplay: perturbed replay correctly rejected"; fi

# Fail if any file is not gofmt-clean — or if a tracked file is over
# 1 MiB: the tree is source and small tables, so a file that size is a
# build output committed by accident (`go build ./cmd/<x>` drops its
# binary at the root), and CI's first step is where it gets caught.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	@out="$$(git ls-files -z | xargs -0 -r sh -c 'find "$$@" -maxdepth 0 -type f -size +1024k 2>/dev/null' sh)"; if [ -n "$$out" ]; then \
		echo "tracked files over 1 MiB (build outputs?):"; echo "$$out"; exit 1; fi

# simlint is the in-tree analysis suite (internal/analysis, DESIGN §6):
# built from the tree, so it gates offline and in CI alike. `go vet
# -vettool` analyzes test files too and caches per package.
bin/simlint: FORCE
	@mkdir -p bin
	$(GO) build -o $@ ./cmd/simlint

simlint: bin/simlint
	$(GO) vet -vettool=$(CURDIR)/bin/simlint ./...

# lint = simlint (hard gate) + staticcheck when present: the offline
# build cannot fetch it, so a missing binary only downgrades the gate;
# CI installs the pinned version first and then runs this same target.
lint: simlint
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (simlint+vet+gofmt still gate)"; fi

# CI helpers: install the pinned tool versions (network required).
staticcheck-install:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)

govulncheck-install:
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

FORCE:

# Per-package micro-benchmarks; claims are made with `go run ./bench`.
bench:
	$(GO) test -bench=. -benchmem ./...

# E21: the scale sweep n = 10 → 1e6 on the calendar queue (as every run
# is), writing results/BENCH_scale.json. Takes minutes and a few GB of RSS
# at the million-host point; `make bench-scale SCALE_MAX=100000` trims it.
SCALE_MAX ?= 1000000
bench-scale:
	$(GO) run ./cmd/figures -scale -scalemax $(SCALE_MAX) -out results

# Regenerate all sixteen committed tables (results/*.{txt,csv}: the registry
# in internal/sim/tables.go) at full scale — about 17 s on two cores.
results:
	$(GO) run ./cmd/figures -table all -seeds 3 -out results

# The gate on them: the same regeneration into a temp dir, failing on any
# byte that differs from results/ (BENCH_scale.json is not a table).
results-check:
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/figures -table all -seeds 3 -out "$$tmp" > /dev/null; \
	diff -r -x BENCH_scale.json results "$$tmp"; \
	echo "results-check: all $$(ls "$$tmp" | wc -l) files regenerate byte for byte"

# The repository benchmark's correctness gate at full size: one rep of
# every workload, each checked against its golden (about 10 s on two
# cores). The test suite runs the workloads only at smoke sizes, which
# no structure that changes its layout at scale (n = 1e5) reaches.
bench-gate:
	$(GO) run ./bench -seconds 0.01 -trace 0

# The non-test Go lines of every package directory (testdata left out),
# then their total: a change's size is this at the parent against this at
# the change.
lines:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.git/*' -exec wc -l {} + | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); sub(/^\.\/?/, "", d); n[d == "" ? "." : d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

clean:
	$(GO) clean ./...
