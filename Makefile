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

.PHONY: check build test race vet fmt bench gate bench-e2e-test fault-matrix fuzz

# Every step `make check` runs, in order.
CHECKS = vet fmt test race bench-e2e-test gate fault-matrix fuzz

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

vet:
	$(GO) vet ./...

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
