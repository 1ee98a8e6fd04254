package platform

import "redundancy/internal/obs"

// Event names written to the supervisor's event sink (SupervisorConfig.
// Events), one JSON line each. OBSERVABILITY.md documents the fields of
// every event.
const (
	EvAssignmentIssued    = "assignment_issued"
	EvResultAccepted      = "result_accepted"
	EvResultRejected      = "result_rejected"
	EvMismatchDetected    = "mismatch_detected"
	EvRingerFailed        = "ringer_failed"
	EvAssignmentReclaimed = "assignment_reclaimed"
	EvWorkerJoined        = "worker_joined"
	EvWorkerLeft          = "worker_left"
	EvWorkerResumed       = "worker_resumed"
	EvPlanRevised         = "plan_revised"
	// EvAssignmentSpeculated is deliberately distinct from
	// EvAssignmentIssued: a speculative clone duplicates a live lease, so
	// folding it into assignment_issued would break the event-stream
	// invariant that an issue implies the copy was not already out.
	EvAssignmentSpeculated   = "assignment_speculated"
	EvParticipantQuarantined = "participant_quarantined"
	EvParticipantProbation   = "participant_probation"
	EvParticipantReadmitted  = "participant_readmitted"
)

// Event names written to a worker's event sink (WorkerConfig.Events).
const (
	EvAssignmentReceived = "assignment_received"
	EvResultSubmitted    = "result_submitted"
	EvReconnect          = "reconnect"
)

// latencyBuckets are powers of two from 1 µs to about 16 s, the bounds of
// every platform latency histogram but commit_wait: a loopback lease takes
// tens of microseconds and a stalled WAN round trip seconds, and the
// histograms must resolve both.
var latencyBuckets = obs.DoublingBuckets(1e-6, 25)

// supMetrics bundles every metric the supervisor emits. All series are
// registered eagerly at construction so /metrics and Snapshot show a
// complete (if zero) picture from the first scrape, and so the
// documentation-coverage test can enumerate them without running traffic.
type supMetrics struct {
	assignmentsIssued *obs.Counter
	resultsAccepted   *obs.Counter
	resultsRejected   *obs.CounterVec // reason
	tasksCertified    *obs.Counter
	mismatchDetected  *obs.Counter
	ringerFailures    *obs.Counter
	convictions       *obs.Counter
	reclaimed         *obs.CounterVec // reason
	workersRegistered *obs.Counter
	workersResumed    *obs.Counter
	workersConnected  *obs.Gauge
	reissued          *obs.Counter
	journalRecords    *obs.Counter
	journalRestored   *obs.Counter
	journalSyncs      *obs.Counter
	turnaround        *obs.HistogramVec // worker

	batchesIssued *obs.Counter
	batchSize     *obs.Histogram

	journalGroupCommits *obs.Counter
	journalCommitBatch  *obs.Histogram
	commitWait          *obs.Histogram
	leaseWait           *obs.Histogram

	speculativeIssued  *obs.Counter
	speculativeWins    *obs.Counter
	speculativeWasted  *obs.Counter
	quarantinesEntered *obs.Counter
	quarantinesExited  *obs.Counter
	participantHealth  *obs.GaugeVec // participant

	adaptPHat          *obs.Gauge
	adaptIntervalWidth *obs.Gauge
	adaptRevisions     *obs.Counter
	adaptPromoted      *obs.Counter
	adaptMinted        *obs.Counter

	wireBytes     *obs.CounterVec // codec
	wireBytesJSON *obs.Counter    // cached wireBytes.With(ProtoJSON)
	wireBytesBin  *obs.Counter    // cached wireBytes.With(ProtoBinary)
	connFlushes   *obs.Counter

	journalSnapshots        *obs.Counter
	journalCompactedRecords *obs.Counter
	journalRestoreSeconds   *obs.Gauge

	// Sharded-cluster families (internal/ring + Cluster). The vec
	// families register unconditionally; the bound per-shard children
	// below are nil on unsharded supervisors (no cluster shard name),
	// keeping the unsharded hot path free of vec lookups.
	shardIssuedVec   *obs.CounterVec // shard_id
	shardAcceptedVec *obs.CounterVec // shard_id
	shardRoutedVec   *obs.CounterVec // shard
	shardIssued      *obs.Counter
	shardAccepted    *obs.Counter
	shardRouted      *obs.Counter
}

// bindShard resolves the shard-labeled children of the hot-path counter
// mirrors for one cluster shard, enabling the per-shard series.
func (m *supMetrics) bindShard(shardID string) {
	m.shardIssued = m.shardIssuedVec.With(shardID)
	m.shardAccepted = m.shardAcceptedVec.With(shardID)
	m.shardRouted = m.shardRoutedVec.With(shardID)
}

// newSupMetrics registers the supervisor's metric families on r
// (idempotently, so several supervisors may share one registry).
func newSupMetrics(r *obs.Registry) *supMetrics {
	m := &supMetrics{
		assignmentsIssued: r.Counter("redundancy_assignments_issued_total",
			"Assignments handed to workers, including re-issues of reclaimed copies."),
		resultsAccepted: r.Counter("redundancy_results_accepted_total",
			"Results accepted into the verification pipeline (acked to the worker)."),
		resultsRejected: r.CounterVec("redundancy_results_rejected_total",
			"Results refused before verification, by reason.", "reason"),
		tasksCertified: r.Counter("redundancy_tasks_certified_total",
			"Tasks whose collected results matched and were certified."),
		mismatchDetected: r.Counter("redundancy_mismatch_detected_total",
			"Tasks on which differing results (or a failed ringer) exposed cheating."),
		ringerFailures: r.Counter("redundancy_ringer_failures_total",
			"Ringer tasks whose returns differed from the precomputed truth."),
		convictions: r.Counter("redundancy_convictions_total",
			"Participants convicted by conclusive ringer evidence (conviction events; a twice-caught participant counts twice)."),
		reclaimed: r.CounterVec("redundancy_assignments_reclaimed_total",
			"Holds on outstanding copies ended without a result, primary or clone, by reason (disconnect, deadline, quarantine, or speculative — an expired clone).", "reason"),
		speculativeIssued: r.Counter("redundancy_speculative_issued_total",
			"Speculative clones issued: still-leased copies duplicated to a second participant after exceeding the completion-time percentile."),
		speculativeWins: r.Counter("redundancy_speculative_wins_total",
			"Speculative races won by the clone (its result arrived before the straggling primary's)."),
		speculativeWasted: r.Counter("redundancy_speculative_wasted_total",
			"Duplicate completions discarded: the race's loser finished anyway and its result was rejected as a duplicate."),
		quarantinesEntered: r.Counter("redundancy_quarantines_entered_total",
			"Participants moved into quarantine (suspect history or deadline-failure rate crossed a threshold)."),
		quarantinesExited: r.Counter("redundancy_quarantines_exited_total",
			"Participants re-admitted to regular work after a clean ringer-only probation."),
		participantHealth: r.GaugeVec("redundancy_participant_health",
			"Per-participant health score in [0,1]: 0 quarantined, at most 0.5 on probation, 1 a clean fast record.", "participant"),
		workersRegistered: r.Counter("redundancy_workers_registered_total",
			"Participant registrations accepted."),
		workersResumed: r.Counter("redundancy_workers_resumed_total",
			"Reconnecting workers that re-attached an existing identity via a resume register."),
		workersConnected: r.Gauge("redundancy_workers_connected",
			"Currently open worker connections."),
		reissued: r.Counter("redundancy_assignments_reissued_total",
			"In-flight assignments re-sent to their holder after a resume, without a new queue pop."),
		journalRecords: r.Counter("redundancy_journal_records_total",
			"Accepted results appended to the journal."),
		journalRestored: r.Counter("redundancy_journal_restored_total",
			"Results recovered from the journal at startup."),
		journalSyncs: r.Counter("redundancy_journal_syncs_total",
			"Successful journal fsyncs (JournalSync mode appends and shutdown flushes)."),
		turnaround: r.HistogramVec("redundancy_assignment_turnaround_seconds",
			"Seconds from issuing an assignment to accepting its result, per worker name.",
			latencyBuckets, "worker"),
		batchesIssued: r.Counter("redundancy_batches_issued_total",
			"Non-empty leases issued (a request_work is served as a lease of one)."),
		batchSize: r.Histogram("redundancy_batch_size",
			"Assignments per issued lease (re-issues included).",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128}),
		journalGroupCommits: r.Counter("redundancy_journal_group_commits_total",
			"Commit windows flushed by the journal committer (one buffered write and at most one fsync each)."),
		journalCommitBatch: r.Histogram("redundancy_journal_commit_batch_size",
			"Journal records made durable per commit window: what every connection submitted during the previous window's write and fsync, each connection at most 8 submissions ahead of the disk.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}),
		commitWait: r.Histogram("redundancy_commit_wait_seconds",
			"Seconds from the supervisor taking up a result submission to the fsync covering its records, one observation per submission that journaled something: what its ack waited for the disk.",
			// Powers of two from 16 µs to about a second: an fsync is tens of
			// microseconds on a battery-backed cache and hundreds of
			// milliseconds on a busy network volume.
			obs.DoublingBuckets(16e-6, 17)),
		leaseWait: r.Histogram("redundancy_lease_wait_seconds",
			"Seconds a work request spent inside the supervisor before its lease (or no_work verdict) was returned, empty-queue parking included.",
			latencyBuckets),
		adaptPHat: r.Gauge("redundancy_adapt_phat",
			"Adaptive estimator's point estimate p̂ of the adversary's assignment share (0 until evidence arrives)."),
		adaptIntervalWidth: r.Gauge("redundancy_adapt_interval_width",
			"Width of the Wilson confidence interval around p̂ (1 while no evidence has been observed)."),
		adaptRevisions: r.Counter("redundancy_adapt_revisions_total",
			"Plan revisions the adaptive controller journaled and applied."),
		adaptPromoted: r.Counter("redundancy_adapt_copies_promoted_total",
			"Additional assignment copies created by promoting queued tasks to higher multiplicity classes."),
		adaptMinted: r.Counter("redundancy_adapt_ringers_minted_total",
			"Ringer tasks minted mid-run by the adaptive controller."),
		wireBytes: r.CounterVec("redundancy_wire_bytes_total",
			"Bytes sent and received on worker connections, by wire codec (framing overhead included).", "codec"),
		connFlushes: r.Counter("redundancy_conn_flushes_total",
			"Socket writes made on worker connections; each carries every reply queued since the last one."),
		journalSnapshots: r.Counter("redundancy_journal_snapshots_total",
			"Journal snapshot records written (periodic captures and compactions)."),
		journalCompactedRecords: r.Counter("redundancy_journal_compacted_records_total",
			"Journal lines discarded by compaction (replaced by the covering snapshot)."),
		journalRestoreSeconds: r.Gauge("redundancy_journal_restore_seconds",
			"Seconds the last startup spent replaying the journal (snapshot install included)."),
		shardIssuedVec: r.CounterVec("redundancy_shard_assignments_issued_total",
			"Assignments handed to workers by one shard of a sharded cluster (the shard-labeled mirror of redundancy_assignments_issued_total).", "shard_id"),
		shardAcceptedVec: r.CounterVec("redundancy_shard_results_accepted_total",
			"Results accepted into one shard's verification pipeline (the shard-labeled mirror of redundancy_results_accepted_total).", "shard_id"),
		shardRoutedVec: r.CounterVec("redundancy_shard_routed_total",
			"Work requests (get_work and request_work) served by one shard — what ring routing delivered to it.", "shard"),
	}
	// Resolve the per-codec wire-byte counters once so the serve loop never
	// does a label lookup per request.
	m.wireBytesJSON = m.wireBytes.With(ProtoJSON)
	m.wireBytesBin = m.wireBytes.With(ProtoBinary)
	return m
}

// clusterMetrics bundles the metrics owned by the sharded-cluster layer
// itself (Cluster + the audit aggregator) rather than any one shard.
type clusterMetrics struct {
	ringRebalances *obs.Counter
	aggregateMerge *obs.Histogram
}

// newClusterMetrics registers the cluster-level metric families on r.
func newClusterMetrics(r *obs.Registry) *clusterMetrics {
	return &clusterMetrics{
		ringRebalances: r.Counter("redundancy_ring_rebalances_total",
			"Shard-map epoch bumps: ring membership changes (a shard killed or restored) that workers must re-route around."),
		aggregateMerge: r.Histogram("redundancy_aggregator_merge_seconds",
			"Seconds one aggregator pass took to export every live shard's audit state and merge it into the global p̂/P_k view.",
			latencyBuckets),
	}
}

// workerMetrics bundles every metric a worker client emits.
type workerMetrics struct {
	rtt        *obs.Histogram
	completed  *obs.Counter
	cheats     *obs.Counter
	noWork     *obs.Counter
	reconnects *obs.Counter
}

// newWorkerMetrics registers the worker-side metric families on r.
func newWorkerMetrics(r *obs.Registry) *workerMetrics {
	return &workerMetrics{
		rtt: r.Histogram("redundancy_worker_rtt_seconds",
			"Protocol round-trip time in seconds, one observation per reply, timed from the write that carried the request it answers (an ack: its own submission, however many later writes it trails).",
			latencyBuckets),
		completed: r.Counter("redundancy_worker_assignments_completed_total",
			"Assignments fully executed and acknowledged by the supervisor."),
		cheats: r.Counter("redundancy_worker_cheats_total",
			"Results this worker corrupted before submission (coalition members only)."),
		noWork: r.Counter("redundancy_worker_nowork_total",
			"no_work replies received (the release policy was holding copies back)."),
		reconnects: r.Counter("redundancy_worker_reconnects_total",
			"Reconnect attempts after a failed session (WorkerConfig.Reconnect mode only)."),
	}
}
