GO ?= go

.PHONY: all build test race cover cover-check bench bench-module bench-smoke flake-check straggler-smoke scenarios-smoke scenarios-scale tail-smoke alloc-check shard-smoke figures fmt vet check chaos fuzz snapshot-smoke clean

all: build test

# The full verification gate CI runs: compile everything, vet, the whole
# test suite under the race detector (the chaos soak included), an
# uncached race pass over the concurrency-heavy platform package, the
# repeated shuffled run of the once-flaky tests, the snapshot-restore
# equivalence smoke, the per-package coverage floor, the concurrency and
# wire-cost smoke, short fuzz bursts on both wire codecs, and the bench
# module built, vetted and short-tested against this tree.
check:
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) bench-module
	$(GO) test -race ./...
	$(GO) test -race -count=1 ./internal/platform/...
	$(MAKE) flake-check
	$(MAKE) snapshot-smoke
	$(MAKE) straggler-smoke
	$(MAKE) scenarios-smoke
	$(MAKE) tail-smoke
	$(MAKE) alloc-check
	$(MAKE) shard-smoke
	$(MAKE) cover-check
	$(MAKE) bench-smoke
	$(MAKE) fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -coverprofile=cover.out ./internal/... .
	$(GO) tool cover -func=cover.out | tail -1

# Per-package coverage floor for the packages that carry the paper's math,
# the wire protocol, and the hand-laid result path (the verifier's runs and
# the scheduler's queue). A new feature that lands without tests drops the
# percentage and fails the gate.
COVER_FLOOR ?= 75.0

cover-check:
	@for pkg in ./internal/dist ./internal/platform ./internal/adapt ./internal/health ./internal/sim ./internal/adversary ./internal/ring ./internal/stats ./internal/verify ./internal/sched; do \
		$(GO) test -coverprofile=cover-check.out $$pkg >/dev/null || exit 1; \
		pct=$$($(GO) tool cover -func=cover-check.out | tail -1 | awk '{sub(/%/, "", $$3); print $$3}'); \
		echo "coverage $$pkg: $$pct% (floor $(COVER_FLOOR)%)"; \
		awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN { exit (p + 0 < f + 0) }' || \
			{ echo "FAIL: $$pkg coverage $$pct% is below the $(COVER_FLOOR)% floor"; rm -f cover-check.out; exit 1; }; \
	done; rm -f cover-check.out

bench:
	$(GO) test -bench=. -benchmem ./...

# The bench/ module is its own Go module (replace-directed at this tree),
# so ./... above never compiles it: a rename of any exported name it uses
# would pass every other gate and break the benchmark. Vet it and run its
# short tests against the tree as it is.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# The concurrency smoke: the end-to-end run with 8 workers and the
# group-commit soak with 32, under the race detector. Catches a supervisor
# that deadlocks, parks forever, or collapses under concurrency. Then the
# wire-cost guard: one lease cycle over loopback must cost the supervisor
# exactly one socket read and one socket write (BenchmarkLoopbackLeaseCycle
# fails on anything else), JSON at batch 1 and binary at batch 16. The
# throughput numbers the docs quote come from the bench/ suite
# (bash bench/run.sh).
bench-smoke:
	$(GO) test -race -count=1 -run 'TestHonestEndToEnd|TestGroupCommitManyWorkerSoak' ./internal/platform
	$(GO) test -run '^$$' -bench 'BenchmarkLoopbackLeaseCycle' -benchtime 2000x -benchmem ./internal/platform

# The three tests that used to race two RunWorker goroutines for work (or
# two probationers for the end of the run), now driven in a fixed order,
# plus the verb-edge equivalence test that depends on that determinism,
# the Shutdown drain (strict and pipelining clients), the compaction
# restore under two concurrent workers (journal order must equal
# adjudication order however their connections race), and the
# reply-ordering tests of the pipelined lease cycle and of the deferred
# ack (the lease inside a frozen fsync, the shared window, the run-ahead
# bound, the read deadline under a slow commit), and the journal's one
# writer (a revision queued in apply order and never waiting on a frozen
# fsync, covered revisions skipped after a head snapshot, a revised plan
# resumed across a crash), and the cluster's routing state read by several
# goroutines through kill/restore cycles, and the cluster built from one
# SupervisorConfig (every option on its shards, snapshots restored
# byte-identically, an unterminated journal restored twice): ten shuffled
# runs each under the
# race detector, so none can quietly regress into "passes most of the
# time". The second
# leg is the worker's FIFO of unacked submissions, state that crosses a
# reconnect: resubmission after a kill, the MaxAssignments cap, the drain
# before done, and an ack settled on the way to a later lease. The lease
# table's randomized reference-model test rides along in the first leg.
flake-check:
	$(GO) test -race -count=10 -shuffle=on ./internal/platform -run 'LeaseTableMatchesReference|ResolveMismatches|QuantizedMatching|ProbationExpires|VerbEdgesEquivalent|ShutdownDrains|LiveCompactionEndToEnd|PipelinedCycleIsOneWrite|AckFlushedBeforeLeaseParks|StrictClientUnaffected|MaxAssignmentsNeverOverLeases|ConnectionDiesAfterPipelinedWrite|PipelinedThenStall|AckNotHeldBehindTornRequest|FloodWithoutReadingIsBounded|QueuedReplyFlushedBeforeCommitWait|DeferredAcksShareOneWindow|DeferredAckBoundStopsReading|SlowCommitDoesNotTripIOTimeout|CommitCrashBetweenWriteAndFsync|RevisionDoesNotWaitForFsync|RevisionJournaledInApplyOrder|JournalReplayCorruption|AdaptiveChaosResumesRevisedPlan|ClusterRoutingStateConcurrent|ClusterShardsTakeEveryOption|ClusterSnapshotsRestore|ClusterRestoreUnterminatedJournal'
	$(GO) test -race -count=10 ./internal/platform -run 'TestUnacked|PipelinedAckSettledBeforeLeaseRead|WorkerResubmitsPendingResult'

# The straggler/health acceptance tests alone, under the race detector:
# the lease release table (every cause of a hold ending without a result,
# for primary and clone), the lease table against its reference model
# (every writer, clones and minted ringers included), speculative
# first-result-wins, the disconnect/deadline reclaim overlap, the
# quarantine lifecycle, the ringer-starved probation-expiry deadlock
# regression, and the stall-mode chaos soak.
straggler-smoke:
	$(GO) test -race -run 'TestLeaseRelease|TestLeaseTableMatchesReference|TestSpeculative|TestDisconnectDeadlineReclaimOverlap|TestQuarantine|TestProbationExpires|TestStallChaosSoak' -count=1 -v ./internal/platform

# The scenario lab's five pathological adversary templates at the fast
# smoke tier (10^4 tasks each): every expected counter bound, the
# seed-determinism property, and the golden counter reports. The plain
# `go test ./internal/sim` run exercises the same suite at 10^5;
# scenarios-scale pushes it to 10^6.
scenarios-smoke:
	$(GO) test -run 'TestScenario' -count=1 ./internal/sim -args -scenario-tasks 10000

scenarios-scale:
	$(GO) test -run 'TestScenarioTemplates' -count=1 -v -timeout 30m ./internal/sim -args -scale

# The tail-latency sweep smoke: the pinned JSON golden of the small sweep
# (regenerate with `go test ./internal/experiments -run TailSweepGolden
# -args -update`), the byte-identical-across-workers property for both the
# sweep and the parallel scenario suite, and the scenario lab's
# per-task allocation budget.
tail-smoke:
	$(GO) test -run 'TestTailSweep|TestScenarioSuiteWorkerInvariance|TestScenarioAllocsPerTask' -count=1 ./internal/experiments ./internal/sim

# The result path's allocation guards: a collector's allocations are its
# tables and chunks and not one per result, with or without Reserve; a
# warm 64-result SubmitBatch allocates nothing; a queue's do not depend on
# the task count; a snapshot restore allocates the verdict list once;
# carved storage never aliases; a warm lease table
# issues and claims a 64-copy lease without allocating. Then the in-process
# lease/compute/submit cycle at batch 16 (BenchmarkBatchPipeline) under
# -benchmem: 2 allocs/op now that Submit and adjudicate allocate nothing
# (25 before), failing above the ceiling below.
BATCH_PIPELINE_ALLOCS ?= 4

alloc-check:
	$(GO) test -count=1 -run 'TestSubmitDoesNotAllocatePerResult|TestSubmitBatchAllocFree|TestReserveIsTheSamePath|TestCarved|TestRestoreVerdictGrowsOnce|TestNewQueueAllocatesOnce|TestSnapshotRestoreAllocatesVerdictsOnce|TestRevisionGrowsPastPresizedTables|TestLeaseCycleAllocFree' ./internal/verify ./internal/sched ./internal/platform
	$(GO) test -run '^$$' -bench BenchmarkBatchPipeline -benchmem ./internal/platform | awk -v max=$(BATCH_PIPELINE_ALLOCS) \
		'{ print } /^BenchmarkBatchPipeline/ { seen = 1; for (i = 2; i <= NF; i++) if ($$i == "allocs/op" && $$(i-1) + 0 > max) over = $$(i-1) } \
		END { if (!seen) { print "FAIL: BenchmarkBatchPipeline did not run"; exit 1 } \
		      if (over) { print "FAIL: BenchmarkBatchPipeline " over " allocs/op, ceiling " max; exit 1 } }'

# The sharded-cluster acceptance tests at reduced scale, under the race
# detector: the 2-shard routed smoke (epoch propagation, per-shard
# counters, exact aggregation), the kill/restore chaos soak with its
# byte-identical replay and unsharded-reference equality checks, the
# cross-shard blacklist propagation case, the routing state read
# concurrently through repeated kill/restore cycles, and the shards built
# from one SupervisorConfig: health, speculation, deadlines, mismatch
# resolution and a fault-injecting listener on every shard; compacted
# shard journals restored to the live state; a shard journal missing its
# final newline restored twice with nothing lost.
shard-smoke:
	$(GO) test -race -run 'TestShardedSmoke|TestShardChaosSoak|TestShardedWorkerBanned|TestClusterPartition|TestClusterRoutingStateConcurrent|TestClusterShardsTakeEveryOption|TestClusterSnapshotsRestore|TestClusterRestoreUnterminatedJournal' -count=1 -v ./internal/platform

# The crash-tolerance acceptance test alone, under the race detector:
# full plan to certification with every fault mode injected and the
# supervisor killed and restored mid-run (see DESIGN.md §8).
chaos:
	$(GO) test -race -run TestChaosSoak -count=1 -v ./internal/platform

# Short-fuzz the wire codecs and the scenario-config surface (seed
# corpora run in every plain `go test`; this explores further for 30s
# each): FuzzCodecRecv throws hostile bytes at the JSON framing,
# FuzzBinaryCodec at the binary decoder plus the differential
# binary-equals-JSON-round-trip property, FuzzScenarioConfig hostile
# parameters (NaN, infinities, negatives) at the scenario lab — which
# must error, never panic or hang — and FuzzRingLookup hostile member
# sets and arbitrary keys at the consistent-hash ring, whose lookup must
# stay total and deterministic.
fuzz:
	$(GO) test -fuzz=FuzzCodecRecv -fuzztime=30s -run '^$$' ./internal/platform
	$(GO) test -fuzz=FuzzBinaryCodec -fuzztime=30s -run '^$$' ./internal/platform
	$(GO) test -fuzz=FuzzScenarioConfig -fuzztime=30s -run '^$$' ./internal/sim
	$(GO) test -fuzz=FuzzRingLookup -fuzztime=30s -run '^$$' ./internal/ring

# The snapshot-restore equivalence smoke, not under the race detector (the
# race run above scales the soak down): replays a >=100k-result journal
# in full and from a snapshot, and fails unless the snapshot restore is
# byte-identical, counts every result restored, and decodes one journal
# line where the full replay decodes all of them, from a snapshot smaller
# than the journal it stands in for. The two restore times are logged,
# not judged.
snapshot-smoke:
	$(GO) test -run TestSnapshotSoakRestoreEquivalence -count=1 -v ./internal/platform

# Regenerate every paper table/figure (see EXPERIMENTS.md).
figures:
	$(GO) run ./cmd/figures -fig all

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

clean:
	rm -f cover.out cover-check.out test_output.txt bench_output.txt
