GO ?= go

# Packages holding HotPath benchmarks.
HOTPATH_PKGS = ./internal/lsh/ ./internal/vision/ ./internal/feature/ ./internal/video/ ./internal/imu/ ./internal/cachestore/ ./internal/metrics/ ./internal/core/ ./internal/p2p/ ./internal/dnn/

# The gated reports approxbench records, as name:experiment — E20
# writes BENCH_throughput.json, and so on. What each file must show
# (every threshold and allocation budget) is the table in
# cmd/benchgate/main.go, nowhere else.
REPORTS = throughput:E20 overload:E21 lookup:E22 quality:E23 p2p:E25

# How long `make fuzz` runs each fuzz target.
FUZZTIME ?= 3s

.PHONY: check build test race vet fmt docs bench gate bench-e2e-test fault-matrix fuzz census census-blocks pairs pairs-hot

# Every step `make check` runs, in order.
CHECKS = vet fmt test race bench-e2e-test gate fault-matrix fuzz census

# check runs every step even after one fails and lists the failures at
# the end, so a red step cannot hide the steps behind it (and `gate`
# itself judges every row of every file before it fails).
check:
	@failed=; \
	for t in $(CHECKS); do \
		echo "==> $$t"; \
		$(MAKE) --no-print-directory $$t || failed="$$failed $$t"; \
	done; \
	if [ -n "$$failed" ]; then echo "make check: FAILED:$$failed"; exit 1; fi; \
	echo "make check: all $(words $(CHECKS)) steps passed"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The doc checks alone, for a doc-only edit: EXPERIMENTS.md's blocks and
# prose, the cell markers and figures of DESIGN.md, README.md and the
# verify skill, and every heading citation (internal/eval/doc_test.go).
# `test` runs them too.
docs:
	$(GO) test ./internal/eval -run Doc -count=1

# vet also checks the arm64 build, which has no assembly, so the Go
# kernels keep compiling wherever the AVX2 ones do not apply.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# The end-to-end benchmark harness is a module of its own (benchmarks/),
# which the root ./... patterns never compile. It calls internal packages
# directly, so vet and test it here: a signature change that breaks it
# fails `make check`, not the next benchmark run.
bench-e2e-test:
	$(GO) -C benchmarks vet ./... && $(GO) -C benchmarks test ./...

# $(call record,DIR,BENCHFLAGS) measures the hot-path benchmarks and
# every report in REPORTS into DIR/BENCH_*.json, then gates those files
# by name. A measurement that fails leaves its file missing, which
# benchgate reports beside every other failed row; the status is
# benchgate's. The timed reports (E20–E22) measure real wall clock: run
# this with nothing else busy on the host.
record = \
	$(GO) test -run '^$$' -bench HotPath -benchmem $(2) $(HOTPATH_PKGS) | \
		$(GO) run ./cmd/benchgate -json $(1)/BENCH_hotpath.json; \
	$(foreach r,$(REPORTS),$(GO) run ./cmd/approxbench -exp $(lastword $(subst :, ,$(r))) \
		-json $(1)/BENCH_$(firstword $(subst :, ,$(r))).json;) \
	$(GO) run ./cmd/benchgate $(1)/BENCH_hotpath.json \
		$(foreach r,$(REPORTS),$(1)/BENCH_$(firstword $(subst :, ,$(r))).json)

# Re-record every checked-in root BENCH_*.json (each stamped with the
# host it ran on) and gate it.
bench:
	@$(call record,.,)

# The regression gate for `make check`: re-measure into a directory of
# this run's own (removed on exit, so concurrent checkouts cannot
# clobber each other) and gate that. A short benchtime is enough for the
# hot-path pass: allocs/op does not depend on the iteration count.
gate:
	@d=$$(mktemp -d) || exit 1; trap 'rm -rf "$$d"' EXIT; \
	$(call record,$$d,-benchtime 100x)

# Device fault matrix (E19): every sensor fault class plus a DNN outage,
# guards and watchdog toggled. The acceptance test (TestFaultMatrixAcceptance,
# run by `test`) asserts the shape; this target prints the full table for
# inspection.
fault-matrix:
	$(GO) run ./cmd/approxbench -exp E19 -frames 300

# Bounded fuzz soak: every Fuzz* target in the module, found by
# `go test -list` (so a new target joins without editing this file),
# runs for FUZZTIME on two workers. A failing input is written under
# the package's testdata/fuzz/ and fails the step.
fuzz:
	@list=$$($(GO) test -list '^Fuzz' ./...) || { echo "$$list"; exit 1; }; \
	targets=$$(echo "$$list" | awk '/^Fuzz/ {f[n++]=$$1} /^ok/ {for (i=0;i<n;i++) print $$2 ":" f[i]; n=0}'); \
	if [ -z "$$targets" ]; then echo "fuzz: no Fuzz targets found"; exit 1; fi; \
	n=0; for t in $$targets; do \
		pkg=$${t%%:*}; fn=$${t#*:}; \
		echo "fuzz $$fn ($$pkg, $(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$fn\$$" -fuzztime $(FUZZTIME) -parallel 2 $$pkg || exit 1; \
		n=$$((n+1)); \
	done; \
	echo "fuzz: $$n targets passed"

# Census: build every program (commands, examples, the benchmark
# harness) with coverage, run each through a fixed script and fail on
# any function outside cmd/, examples/ and benchmarks/ that no run
# entered unless testdata/knobs/unreached.txt (or test-only-funcs.txt)
# gives the reason it stays, and on any block no run executed inside a
# function that ran, in the packages scripts/census.sh gates, unless
# testdata/knobs/unreached-blocks.txt does. Works in a directory of its
# own (mktemp -d).
census:
	@GO=$(GO) bash scripts/census.sh

# The same run, printing first the statements no program runs, per
# package, and every unexecuted block inside a function that ran.
census-blocks:
	@GO=$(GO) bash scripts/census.sh -blocks

# Paired end-to-end runs of this checkout against REV (a commit, usually
# the parent): seeds 1…N of each workload, alternating which side goes
# first, summarised by cmd/pairstat (medians, IQRs, wins, and the
# simulated metrics' rules). Takes about 2·N·SECONDS per workload.
N ?= 10
SECONDS ?= 10
WORKLOADS ?= device-video photo-lookup photo-churn peer-mesh pool-serve
pairs:
	@if [ -z "$(REV)" ]; then echo "usage: make pairs REV=<commit> [N=10] [WORKLOADS=...] [SECONDS=10]"; exit 2; fi
	@bash scripts/pairs.sh "$(REV)" "$(N)" "$(WORKLOADS)" "$(SECONDS)"

# Paired hot-path benchmark runs of this checkout against REV: each
# side's test binary built once per HOTPATH_PKGS package, N rounds of
# the benchmarks matching BENCH on both sides, flipping which goes first,
# summarised by cmd/pairstat (per row: ns/op medians, IQRs, wins; a rise
# in allocs/op fails). BENCH reaches the script as typed ($(value ...)),
# so an anchored regex such as 'HotPathNearest$|EngineFrame' keeps its $.
BENCH ?= HotPath
pairs-hot:
	@if [ -z "$(REV)" ]; then echo "usage: make pairs-hot REV=<commit> [BENCH=<regex>] [N=10]"; exit 2; fi
	@bash scripts/pairs-hot.sh "$(REV)" "$(N)" '$(value BENCH)' $(HOTPATH_PKGS)
