GO ?= go

# Alloc budgets for the hot-path benchmarks, enforced by cmd/benchgate.
# NearestInto/NearestWithinInto/ExtractInto/ExtractThumbInto/
# CandidatesInto with a reused buffer must stay allocation-free, and so
# must the kNN vote, the video gate (a keyframe scan allocates nothing
# and a push into a full library recycles the evicted buffer) and the
# inertial gate (a sample into a full window takes a ring slot). The
# store's label read copies nothing; an insert into a full store may
# allocate only what the index's bucket growth does (the store itself:
# nothing). Substring-matched against benchmark names.
HOTPATH_BUDGETS = HotPathNearest=0,HotPathNearestDescriptors=0,HotPathNearestWithinDescriptors=0,HotPathExactNearest=0,HotPathVote=0,HotPathSignature=0,HotPathTopK=0,HotPathCandidates=0,HotPathFusedExtract=0,HotPathExtractFromThumb=0,HotPathGridIntegral=0,HotPathHistogram=0,HotPathKeyframeMatch=0,HotPathKeyframePush=0,HotPathIMUObserve=0,HotPathStoreLabel=0,HotPathStoreInsertEvict=4,HotPathObserveFrame=0

# Packages holding HotPath benchmarks.
HOTPATH_PKGS = ./internal/lsh/ ./internal/feature/ ./internal/video/ ./internal/imu/ ./internal/cachestore/ ./internal/metrics/

# The serving-scale regression gate: sharded store + micro-batched
# inference must beat the single-mutex baseline by at least this
# frames/sec factor at 16 concurrent streams.
MIN_THROUGHPUT_SPEEDUP = 3.0

# The overload-resilience gate: with deadlines + admission control on,
# the node must retain at least this fraction of its peak goodput when
# offered 4x its measured capacity.
MIN_GOODPUT_RETENTION = 0.85

# The lookup-pipeline gate: the multi-probe + sketch pipeline at T/2
# tables must beat the exact-bucket pipeline at T tables by at least
# this ns/op factor, at equal-or-better recall, with zero warm-path
# allocations.
MIN_LOOKUP_SPEEDUP = 1.3

# The cache-quality gate (E23): under recurring injected label drift
# the self-healing node (shadow audits + quarantine + recalibration)
# must recover at least this fraction of the no-drift baseline's tail
# accuracy while retaining this fraction of its latency savings.
MIN_ACCURACY_RECOVERY = 0.95
MIN_SAVINGS_RETENTION = 0.6

# The P2P wire-protocol gate (E25): the compact comms stack (quantized
# codec v2 + delta digests + query coalescing + gossip batching) must
# cut client wire bytes per session-frame by at least this factor at
# the most constrained link bandwidth, at equal-or-better peer hit
# rate versus the legacy float64 protocol.
MIN_P2P_REDUCTION = 4.0

.PHONY: check build test race vet fmt bench bench-e2e-test bench-hotpath bench-gate bench-throughput throughput-gate bench-overload overload-gate bench-lookup lookup-gate bench-quality quality-gate bench-p2p p2p-gate fault-matrix

# Every gate `make check` runs, in order.
CHECKS = vet fmt test race bench-e2e-test bench-gate throughput-gate overload-gate lookup-gate quality-gate p2p-gate fault-matrix

# check runs every gate even after one fails and lists the failures at
# the end, so a known-red gate cannot hide the gates behind it.
check:
	@failed=; \
	for t in $(CHECKS); do \
		echo "==> $$t"; \
		$(MAKE) --no-print-directory $$t || failed="$$failed $$t"; \
	done; \
	if [ -n "$$failed" ]; then echo "make check: FAILED:$$failed"; exit 1; fi; \
	echo "make check: all $(words $(CHECKS)) gates passed"

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

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# The end-to-end benchmark harness is a module of its own (benchmarks/),
# which the root ./... patterns never compile. It calls internal packages
# directly, so vet and test it here: a signature change that breaks it
# fails `make check`, not the next benchmark run.
bench-e2e-test:
	$(GO) -C benchmarks vet ./... && $(GO) -C benchmarks test ./...

# Full hot-path benchmark run; records results in BENCH_hotpath.json and
# enforces the allocation budgets.
bench-hotpath:
	$(GO) test -run '^$$' -bench 'HotPath|GridNaive' -benchmem \
		$(HOTPATH_PKGS) | \
		$(GO) run ./cmd/benchgate -json BENCH_hotpath.json -budgets '$(HOTPATH_BUDGETS)'

# Fast allocation gate for `make check`: short benchtime is enough to
# measure allocs/op exactly (it is iteration-count independent).
bench-gate:
	$(GO) test -run '^$$' -bench HotPath -benchmem -benchtime 100x \
		$(HOTPATH_PKGS) | \
		$(GO) run ./cmd/benchgate -budgets '$(HOTPATH_BUDGETS)'

# Multi-session saturation benchmark: drives 16 concurrent streams
# through the architecture ladder (single-mutex → pool → sharded →
# sharded+batched), records BENCH_throughput.json, and enforces the
# speedup gate.
bench-throughput:
	$(GO) run ./cmd/approxbench -throughput -throughput-json BENCH_throughput.json
	$(GO) run ./cmd/benchgate -throughput-json BENCH_throughput.json -min-speedup $(MIN_THROUGHPUT_SPEEDUP)

# Fast serving gate for `make check`: re-measures the ladder (the run
# itself is only a few seconds) and fails on regression below the
# required speedup.
throughput-gate:
	$(GO) run ./cmd/approxbench -throughput -throughput-json /tmp/BENCH_throughput.gate.json
	$(GO) run ./cmd/benchgate -throughput-json /tmp/BENCH_throughput.gate.json -min-speedup $(MIN_THROUGHPUT_SPEEDUP)

# Overload resilience benchmark (E21): open-loop arrivals from 0.5x to
# 4x of measured capacity against a deadline+admission-protected node
# and an unprotected one; records BENCH_overload.json and enforces the
# goodput-retention gate.
bench-overload:
	$(GO) run ./cmd/approxbench -overload -overload-json BENCH_overload.json
	$(GO) run ./cmd/benchgate -overload-json BENCH_overload.json -min-retention $(MIN_GOODPUT_RETENTION)

# Fast overload gate for `make check`: re-runs the sweep (a few seconds
# of real wall-clock load) and fails if shedding stops protecting
# goodput under 4x overload.
overload-gate:
	$(GO) run ./cmd/approxbench -overload -overload-json /tmp/BENCH_overload.gate.json
	$(GO) run ./cmd/benchgate -overload-json /tmp/BENCH_overload.gate.json -min-retention $(MIN_GOODPUT_RETENTION)

# Lookup-bound hit-heavy benchmark: exact-bucket pipeline vs the
# multi-probe + sketch pipeline over a warm 4096-entry cache; records
# BENCH_lookup.json and enforces the lookup gate.
bench-lookup:
	$(GO) run ./cmd/approxbench -hitheavy -lookup-json BENCH_lookup.json
	$(GO) run ./cmd/benchgate -lookup-json BENCH_lookup.json -min-lookup-speedup $(MIN_LOOKUP_SPEEDUP)

# Fast lookup gate for `make check`: re-measures both pipelines (about
# a second of wall clock; timing passes are interleaved so the ratio is
# stable under machine noise) and fails on regression.
lookup-gate:
	$(GO) run ./cmd/approxbench -hitheavy -lookup-json /tmp/BENCH_lookup.gate.json
	$(GO) run ./cmd/benchgate -lookup-json /tmp/BENCH_lookup.gate.json -min-lookup-speedup $(MIN_LOOKUP_SPEEDUP)

# Cache-quality benchmark (E23): recurring label drift against a
# no-drift baseline, an unprotected node, and the self-healing node;
# records BENCH_quality.json and enforces the recovery + retention
# gates.
bench-quality:
	$(GO) run ./cmd/approxbench -drift -quality-json BENCH_quality.json
	$(GO) run ./cmd/benchgate -quality-json BENCH_quality.json \
		-min-accuracy-recovery $(MIN_ACCURACY_RECOVERY) -min-savings-retention $(MIN_SAVINGS_RETENTION)

# Fast quality gate for `make check`: the full drift replay is virtual-
# clock driven and takes well under a second of wall clock.
quality-gate:
	$(GO) run ./cmd/approxbench -drift -quality-json /tmp/BENCH_quality.gate.json
	$(GO) run ./cmd/benchgate -quality-json /tmp/BENCH_quality.gate.json \
		-min-accuracy-recovery $(MIN_ACCURACY_RECOVERY) -min-savings-retention $(MIN_SAVINGS_RETENTION)

# P2P wire benchmark (E25): legacy v1 float64 protocol vs the compact
# v2 stack on bandwidth-constrained links; records BENCH_p2p.json and
# enforces the bytes/frame reduction gate at no peer-hit-rate loss.
bench-p2p:
	$(GO) run ./cmd/approxbench -p2p -p2p-json BENCH_p2p.json
	$(GO) run ./cmd/benchgate -p2p-json BENCH_p2p.json -min-bytes-reduction $(MIN_P2P_REDUCTION)

# Fast p2p gate for `make check`: the sweep is virtual-clock driven and
# replays in well under a second of wall clock.
p2p-gate:
	$(GO) run ./cmd/approxbench -p2p -p2p-json /tmp/BENCH_p2p.gate.json
	$(GO) run ./cmd/benchgate -p2p-json /tmp/BENCH_p2p.gate.json -min-bytes-reduction $(MIN_P2P_REDUCTION)

# Device fault matrix (E19): every sensor fault class plus a DNN outage,
# guards and watchdog toggled. The acceptance test asserts the shape;
# this target prints the full table for inspection.
fault-matrix:
	$(GO) test -run 'TestFaultMatrixAcceptance|TestE19Report' -count=1 ./internal/eval/
	$(GO) run ./cmd/approxbench -exp E19 -frames 300
