# Convenience targets; everything is plain `go` underneath.

GO ?= go

# Pinned lint-tool versions: the single source of truth for CI, which
# installs through the *-install targets below instead of floating on
# whatever happens to be on PATH.
STATICCHECK_VERSION ?= 2025.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build test test-short check vet test-race interleave-gate allocs fuzz-smoke diffreplay results-check fmt lint simlint staticcheck-install govulncheck-install fuzz bench bench-scale results clean FORCE

all: build test

build:
	$(GO) build ./...

test:
	$(GO) vet ./...
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The CI gate, each piece once; CI calls the same targets one step each.
# (The repository benchmark's smoke and goldens ride `go test ./...`.)
check: fmt lint vet test-race interleave-gate allocs fuzz-smoke diffreplay results-check

vet:
	$(GO) vet ./...
	$(GO) build ./...

# The full suite under the race detector: the pdes lane tests, the
# cross-engine equivalence suite, the parallel sweeps and TestScaleSmoke
# (50k hosts, sequential vs two lanes) all ride this one run. Then
# internal/live three more times: its hosts are goroutines under a
# bounded-skew gate, whose lost-raise and missed-joiner races only the
# race detector's slower interleavings expose, and a race that needs an
# unlucky interleaving does not show in a single pass.
test-race:
	$(GO) test -race ./...
	$(GO) test -race -count=3 ./internal/live

# The packages whose tests run goroutines the scheduler interleaves —
# the live cluster and the differential replay of its recordings — must
# pass whatever the interleaving: thirty passes at GOMAXPROCS 1, 2 and 4,
# while the internal/sim suite runs over and over beside them as a CPU
# hog. A live test that fails anyway names the bundle that replays its run.
interleave-gate:
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) test -c -o "$$tmp/hog.test" ./internal/sim; \
	touch "$$tmp/hog"; \
	(cd internal/sim && while [ -e "$$tmp/hog" ]; do "$$tmp/hog.test" -test.count=1 > /dev/null 2>&1 || true; done) & hog=$$!; \
	status=0; $(GO) test -count=30 -cpu 1,2,4 -timeout 60m ./internal/live ./internal/replaycmp || status=$$?; \
	rm -f "$$tmp/hog"; wait $$hog; exit $$status

# The alloc-regression gates (DESIGN §7) skip under -race, whose
# instrumentation allocates, so they get their own plain run.
allocs:
	$(GO) test -run 'ZeroAlloc|Allocs' ./internal/des ./internal/des/equeue ./internal/protocol ./internal/sim ./internal/workload ./internal/storage ./internal/live ./internal/wire ./internal/statestore ./internal/recovery ./internal/trace

# A short fuzz smoke of the two parsers of outside input — wire frames and
# the bundles of recorded schedules `mhsim -replay-schedule` reads, whose
# schedule section is also fuzzed on its own — of the replay of every schedule the parser accepts, of the recovery
# propagation against its full-scan reference on traces and cuts the
# fuzzer picks, and of the workload driver's in-line operations against
# the same driver with every operation an event, on worlds the fuzzer
# picks, of sim.Run on small configurations the fuzzer picks (a
# rejected one returns Validate's error, an accepted one runs with its
# checks on), and of the collection rule (a collecting run restores its
# uncollected twin's recovery lines and replays what the trace says);
# `make fuzz` runs longer. The schedule and bundle seeds
# are tens of kilobytes of JSON, which the fuzzer's default minute of
# minimization per finding would spend the whole smoke on, so that is
# capped in runs.
fuzz-smoke:
	$(GO) test -fuzz=FuzzFrameRoundTrip -fuzztime=10s ./internal/wire
	$(GO) test -fuzz=FuzzImportSchedule -fuzztime=10s -fuzzminimizetime=10x ./internal/trace
	$(GO) test -fuzz=FuzzImportBundle -fuzztime=10s -fuzzminimizetime=10x ./internal/replaycmp
	$(GO) test -fuzz=FuzzReplaySchedule -fuzztime=10s -fuzzminimizetime=10x ./internal/sim
	$(GO) test -fuzz=FuzzPropagate -fuzztime=10s ./internal/recovery
	$(GO) test -fuzz=FuzzDriverInline -fuzztime=10s ./internal/workload
	$(GO) test -fuzz=FuzzConfig -fuzztime=10s ./internal/sim
	$(GO) test -fuzz=FuzzCollect -fuzztime=10s ./internal/sim

fuzz:
	$(GO) test -fuzz=FuzzFrameRoundTrip -fuzztime=2m ./internal/wire
	$(GO) test -fuzz=FuzzImportSchedule -fuzztime=2m -fuzzminimizetime=10x ./internal/trace
	$(GO) test -fuzz=FuzzImportBundle -fuzztime=2m -fuzzminimizetime=10x ./internal/replaycmp
	$(GO) test -fuzz=FuzzReplaySchedule -fuzztime=2m -fuzzminimizetime=10x ./internal/sim
	$(GO) test -fuzz=FuzzPropagate -fuzztime=2m ./internal/recovery
	$(GO) test -fuzz=FuzzDriverInline -fuzztime=2m ./internal/workload
	$(GO) test -fuzz=FuzzConfig -fuzztime=2m ./internal/sim
	$(GO) test -fuzz=FuzzCollect -fuzztime=2m ./internal/sim

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

clean:
	$(GO) clean ./...
