GO ?= go

# The platform tests that run on virtual time (internal/platform/vtime_test.go
# and soak_test.go, the fault soaks among them) are built only with this
# experiment (go1.24). A plain `go test` reaches them through one child run
# (vtime_plain_test.go); the targets below that select them by name, measure
# their coverage or repeat them set it.
SYNCTEST = GOEXPERIMENT=synctest

.PHONY: all build test race cover cover-check bench bench-module bench-smoke flake-check straggler-smoke scenarios-smoke scenarios-scale tail-smoke alloc-check shard-smoke figures fmt vet check chaos fuzz snapshot-smoke clean

all: build test

# The full verification gate CI runs: compile everything, vet, the whole
# test suite under the race detector (the chaos soak included), the
# platform package vetted and race-tested uncached with GOEXPERIMENT=synctest
# (SYNCTEST), so the bubbles of vtime_test.go and soak_test.go are compiled
# and run directly, the platform package repeated and shuffled under the
# race detector, the snapshot-restore equivalence smoke, the per-package
# coverage floor, the concurrency and wire-cost smoke, short fuzz bursts on
# both wire codecs, and the bench module built, vetted and short-tested
# against this tree.
check:
	$(GO) build ./...
	$(GO) vet ./...
	$(SYNCTEST) $(GO) vet ./internal/platform
	$(MAKE) bench-module
	$(GO) test -race ./...
	$(SYNCTEST) $(GO) test -race -count=1 ./internal/platform
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
	@for pkg in ./internal/dist ./internal/platform ./internal/lease ./internal/adapt ./internal/health ./internal/sim ./internal/adversary ./internal/ring ./internal/stats ./internal/verify ./internal/sched; do \
		$(SYNCTEST) $(GO) test -coverprofile=cover-check.out $$pkg >/dev/null || exit 1; \
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
	$(SYNCTEST) $(GO) test -race -count=1 -run 'TestHonestEndToEnd|TestGroupCommitManyWorkerSoak' ./internal/platform
	$(GO) test -run '^$$' -bench 'BenchmarkLoopbackLeaseCycle' -benchtime 2000x -benchmem ./internal/platform

# The whole platform package and the root package's facade tests, twenty
# shuffled runs each under the race detector, so no test in them can
# quietly regress into "passes most of the time". The platform's timing and
# fault tests, the five fault soaks among them, run in virtual time, so a
# run costs about nine seconds of test time; the root package's twenty runs
# take about half a minute.
flake-check:
	$(SYNCTEST) $(GO) test -race -count=20 -shuffle=on ./internal/platform
	$(GO) test -race -count=20 -shuffle=on .

# The straggler/health acceptance tests alone, under the race detector:
# the lease release table (every cause of a hold ending without a result,
# for primary and clone), what one sweep reclaims as quarantine, that a
# hold follows its participant across a resume (and a shared connection's
# end returns a raced copy to the queue; resumes, leases over a connection
# left and disconnects against a reference), speculative
# first-result-wins, the disconnect/deadline reclaim overlap, the
# quarantine lifecycle, the ringer-starved probation-expiry deadlock
# regression, the stall-mode chaos soak, and the health roster, which has
# no lock of its own, read and swept in a loop while two workers serve
# (TestRosterBehindStateMu: any roster access outside stateMu is a race);
# then every test of the lease table itself (internal/lease: the table
# against its reference model, every writer, clones and grown task IDs
# included, and its allocation guard).
straggler-smoke:
	$(SYNCTEST) $(GO) test -race -run 'TestLeaseRelease|TestSweepReclaimsQuarantined|TestHoldsFollowTheirParticipant|TestSpeculative|TestDisconnectDeadlineReclaimOverlap|TestQuarantine|TestProbationExpires|TestStallChaosSoak|TestRosterBehindStateMu' -count=1 -v ./internal/platform
	$(GO) test -race -count=1 -v ./internal/lease

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
# the task count, drained through Next or NextBatch; a queue that deals
# copies and takes them back through Abandon reuses the room dealing freed
# at the front of its ready pool, allocating nothing
# (TestAbandonCycleAllocFree); a queue deals, seed
# for seed, the permutation the closure shuffle dealt, holds 8 B per queued
# copy, and refuses a copy its 8-byte slot cannot hold; a snapshot restore allocates the verdict list once;
# carved storage never aliases; a verdict is read (by index, by task, and
# in Summary's and Export's loops) without allocating, and a restored one
# copies the caller's lists; a collector that has adjudicated 100 000
# Balanced tasks holds its per-task byte budget; a warm lease table
# issues a 64-copy lease and ends it by claim, or by deadline through its
# observer, without allocating; a warm codec
# encodes, flushes and decodes every lease-cycle frame (single-item and
# 16-item batch, JSON and binary) without allocating, and decodes verbs,
# reasons, protos and the work kind into strings it already holds. The
# scenario lab's engine allocates O(setup), not per task, and holds its
# per-task byte budget at 10^5 tasks (12-byte workers, 8-byte backlog
# entries, 16-byte heap nodes that carry their own payload); an event's
# kind and arg, and a backlog entry's copy index and Ringer bit, come back
# out of their packing at the widest values; a warm event heap's push/pop
# cycle allocates nothing, and its pops, a push filling the popped root's
# slot among them, match a sorted reference under random interleavings
# (ties of −0 and +0 and +Inf times among them); the tail engine's
# per-worker winner tree, merged with the heap as the engine pops them,
# matches a linear-scan reference under random sets, clears and pushes at
# 1, 3, 256 and 1000 slots, never pops an idle slot's sentinel
# (TestEventTreeMatchesReference), and its pop/set cycle allocates nothing
# (TestEventTreeSteadyStateAllocFree); a single-copy tail
# workload reproduces its pinned quantiles and counters on the engine's
# one path; the tail engine holds 9 arena bytes per base copy, 14 under
# speculation, now that a completion reads per-worker state instead of a
# per-copy table; the supervisor's summary, which judges
# certified values outside its state lock, counts a coalition's unanimous
# lies; and the health roster's Snapshot, which scores every participant
# against one median of its latency window, allocates the same at 1
# participant and at 64 (TestSnapshotAllocsFlat); a supervisor built
# from a Balanced plan's runs allocates at most 34 B per task at 10^5 and
# 10^6 tasks, its tables and no per-task list (TestNewSupervisorBytesPerTask);
# a 2-shard cluster, its shards' tables sized to the tasks each owns under
# dense local IDs, allocates at most 48 B per task at 2x10^5 and 10^6 tasks
# (TestNewClusterBytesPerTask);
# a metric family's With on a label set that already has a child
# allocates nothing (TestWithExistingChildAllocFree); an adaptive
# controller tick that revises nothing allocates nothing, before and after
# a revision (TestAdaptTickAllocFree); a warm sweep with speculation and
# health on allocates nothing, its gauge labels past 100 included
# (TestSweepAllocFree); and the clone-threshold window's Add, through its
# rotations, and its Quantile allocate nothing (TestWindowAllocFree).
# Then the in-process lease/compute/submit cycle at batch 16
# (BenchmarkBatchPipeline) under -benchmem: 0 allocs/op now that Submit,
# adjudicate and the turnaround histogram's With allocate nothing (25
# before), failing above the ceiling below.
BATCH_PIPELINE_ALLOCS ?= 0

alloc-check:
	$(GO) test -count=1 -run 'TestSubmitDoesNotAllocatePerResult|TestSubmitBatchAllocFree|TestReserveIsTheSamePath|TestCarved|TestRestoreVerdictGrowsOnce|TestNewQueueAllocatesOnce|TestAbandonCycleAllocFree|TestQueueOrderMatchesClosureShuffle|TestQueueBytesPerCopy|TestQueueRefusesUnpackable|TestSnapshotRestoreAllocatesVerdictsOnce|TestRevisionGrowsPastPresizedTables|TestVerdictReadsAllocFree|TestRestoreVerdictCopiesLists|TestCollectorBytesPerTask|TestLeaseCycleAllocFree|TestCodecFramesAllocFree|TestJSONDecodeInternsStrings|TestScenarioAllocsPerTask|TestScenarioBytesPerTask|TestRunStateSizes|TestEventHeapPayloadRoundTrip|TestBacklogEntryRoundTrip|TestEventHeapSteadyStateAllocFree|TestEventHeapMatchesReference|TestEventTreeMatchesReference|TestEventTreeSteadyStateAllocFree|TestTailUniformGolden|TestTailEngineBytesPerCopy|TestSummaryCountsWrongResults|TestSnapshotAllocsFlat|TestNewSupervisorBytesPerTask|TestNewClusterBytesPerTask|TestWithExistingChildAllocFree|TestAdaptTickAllocFree|TestSweepAllocFree|TestWindowAllocFree' ./internal/verify ./internal/sched ./internal/platform ./internal/lease ./internal/sim ./internal/health ./internal/obs ./internal/stats
	$(GO) test -run '^$$' -bench BenchmarkBatchPipeline -benchmem ./internal/platform | awk -v max=$(BATCH_PIPELINE_ALLOCS) \
		'{ print } /^BenchmarkBatchPipeline/ { seen = 1; for (i = 2; i <= NF; i++) if ($$i == "allocs/op" && $$(i-1) + 0 > max) over = $$(i-1) } \
		END { if (!seen) { print "FAIL: BenchmarkBatchPipeline did not run"; exit 1 } \
		      if (over) { print "FAIL: BenchmarkBatchPipeline " over " allocs/op, ceiling " max; exit 1 } }'

# The sharded-cluster acceptance tests at reduced scale, under the race
# detector: the 2-shard routed smoke (epoch propagation, per-shard
# counters, exact aggregation), the kill/restore chaos soak with its
# byte-identical replay and unsharded-reference equality checks, the
# cross-shard blacklist propagation case, the routing state read
# concurrently through repeated kill/restore cycles, two kills and two
# restores of one shard raced (one of each wins, and the loser of a
# restore never opens the live shard's journal), and the shards built
# from one SupervisorConfig: health, speculation, deadlines, mismatch
# resolution and a fault-injecting listener on every shard; compacted
# shard journals restored to the live state; a shard journal missing its
# final newline restored twice with nothing lost. The shards are built
# concurrently, so beside them run the checks on that build: the user's
# Logf called one call at a time across shards, a shard whose journal
# cannot open failing the build with nothing left running, and 20 builds
# rendering the same metric families in the same order. Each shard keeps
# dense local task IDs behind one ID map, so beside them run the checks on
# that map: every task on one shard under a local ID that maps back, one
# run per global run a shard has tasks in, each shard dealing the (global
# task, copy) sequence of a queue built over its global-ID runs, and a
# result for another shard's task, past the plan or negative refused with
# the same ack bytes, and a shard journal holding a plan revision refused
# at restore. First, the ring package under the race detector: its
# bucketed lookup held to a binary search over every point.
shard-smoke:
	$(GO) test -race -count=1 ./internal/ring
	$(SYNCTEST) $(GO) test -race -run 'TestShardedSmoke|TestShardChaosSoak|TestShardedWorkerBanned|TestClusterPartition|TestClusterPartsAreTaskPartition|TestClusterShardsDealTheParentSequence|TestClusterRefusesForeignResults|TestClusterShardRefusesRevisionRecord|TestClusterRoutingStateConcurrent|TestClusterLifecycleSerialized|TestClusterShardsTakeEveryOption|TestClusterSnapshotsRestore|TestClusterRestoreUnterminatedJournal|TestClusterLogfSerialized|TestClusterFailedBuildLeavesNothing|TestClusterMetricsFamilyOrder' -count=1 -v ./internal/platform

# The crash-tolerance acceptance test alone, under the race detector:
# full plan to certification with every fault mode injected and the
# supervisor killed and restored mid-run, once per fault seed, in virtual
# time (see DESIGN.md §8).
chaos:
	$(SYNCTEST) $(GO) test -race -run TestChaosSoak -count=1 -v ./internal/platform

# Short-fuzz the wire codecs and the scenario-config surface (seed
# corpora run in every plain `go test`; this explores further for 30s
# each): FuzzCodecRecv throws hostile bytes at the JSON framing and
# holds every line it accepts to encoding/json's decoding of it,
# FuzzCodecSend holds the JSON encoder to encoding/json's bytes for
# every Message it builds, FuzzBinaryCodec throws hostile bytes at the
# binary decoder plus the differential
# binary-equals-JSON-round-trip property, FuzzScenarioConfig hostile
# parameters (NaN, infinities, negatives) at the scenario lab — which
# must error, never panic or hang — and FuzzRingLookup hostile member
# sets and arbitrary keys at the consistent-hash ring, whose lookup must
# stay total and deterministic, answer exactly what a binary search over
# the ring's points answers, and index at most two int32 per point.
fuzz:
	$(GO) test -fuzz=FuzzCodecRecv -fuzztime=30s -run '^$$' ./internal/platform
	$(GO) test -fuzz=FuzzCodecSend -fuzztime=30s -run '^$$' ./internal/platform
	$(GO) test -fuzz=FuzzBinaryCodec -fuzztime=30s -run '^$$' ./internal/platform
	$(GO) test -fuzz=FuzzScenarioConfig -fuzztime=30s -run '^$$' ./internal/sim
	$(GO) test -fuzz=FuzzRingLookup -fuzztime=30s -run '^$$' ./internal/ring

# The snapshot-restore equivalence smoke, not under the race detector (the
# race run above scales the soak down): replays a >=100k-result journal
# in full and from a snapshot, and fails unless the snapshot restore is
# byte-identical, counts every result restored, and decodes one journal
# line where the full replay decodes all of them, from a snapshot smaller
# than the journal it stands in for. The two restore times are logged,
# not judged. Beside it run the two tests that hold a restore to what the
# live run applied, since byte-identical snapshots do not cover what a
# snapshot leaves out: dispute resolutions from a journal and from a
# snapshot (TestResolveMismatchesSalvagesResults), and a journal replay
# that rebuilds credits, convictions, quarantines and p̂ while counting
# and emitting nothing (TestReplayAppliesStateObservesNothing).
snapshot-smoke:
	$(GO) test -run 'TestSnapshotSoakRestoreEquivalence|TestResolveMismatchesSalvagesResults|TestReplayAppliesStateObservesNothing' -count=1 -v ./internal/platform

# Regenerate every paper table/figure (see EXPERIMENTS.md).
figures:
	$(GO) run ./cmd/figures -fig all

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

clean:
	rm -f cover.out cover-check.out test_output.txt bench_output.txt
