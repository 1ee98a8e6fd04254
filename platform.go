package redundancy

import (
	"io"

	"redundancy/internal/adapt"
	"redundancy/internal/faults"
	"redundancy/internal/health"
	"redundancy/internal/obs"
	"redundancy/internal/platform"
)

// SupervisorConfig parameterizes a platform supervisor (see NewSupervisor).
type SupervisorConfig = platform.SupervisorConfig

// Supervisor is the trusted coordinator of the runnable TCP platform: it
// serves plan assignments to workers, collects and certifies results,
// checks ringers against precomputed values, and blacklists participants
// convicted by ringer evidence.
type Supervisor = platform.Supervisor

// NewSupervisor builds a platform supervisor for a plan.
func NewSupervisor(cfg SupervisorConfig) (*Supervisor, error) {
	return platform.NewSupervisor(cfg)
}

// DefaultMaxBatch is the supervisor's lease-size cap when
// SupervisorConfig.MaxBatch is zero: one get_work request leases at most
// this many assignments. Both daemons default their -batch flag to it.
const DefaultMaxBatch = platform.DefaultMaxBatch

// AdaptConfig enables the supervisor's adaptive redundancy control plane
// when assigned to SupervisorConfig.Adapt: an online Wilson-interval
// estimate p̂ of the adversary's assignment share, and a controller that
// revises the live plan (promoting still-queued tasks, minting ringers)
// whenever the interval's upper bound pushes any class's detection
// probability below TargetEpsilon. Requires the free scheduling policy.
// See DESIGN.md's adaptive-control section.
type AdaptConfig = adapt.Config

// AdaptEstimate is the estimator's current view: the point estimate p̂,
// the Wilson confidence interval around it, and the evidence weight
// behind it. Returned by Supervisor.AdaptiveEstimate.
type AdaptEstimate = adapt.Estimate

// HealthConfig enables the supervisor's participant-health subsystem when
// assigned to SupervisorConfig.Health: per-participant latency and verdict
// tracking, quarantine when suspect history or deadline-failure rate
// crosses a threshold, and probationary ringer-only re-admission. The zero
// value selects the documented defaults. Requires the free scheduling
// policy; quarantine events feed the adaptive p̂ estimator when -adapt is
// on. See DESIGN.md's participant-health section.
type HealthConfig = health.Config

// ParticipantHealth is one participant's row in the health roster
// snapshot: state, score, and the counters behind them.
type ParticipantHealth = health.ParticipantHealth

// SpeedModel makes a worker's per-assignment compute time heterogeneous
// (base + uniform jitter + a straggler mixture) when assigned to
// WorkerConfig.Speed. It is how benchmarks and tests model slow hosts for
// the supervisor's speculative-reissue tier to cut.
type SpeedModel = platform.SpeedModel

// WorkerConfig parameterizes a platform worker (see RunWorker).
type WorkerConfig = platform.WorkerConfig

// WorkerStats reports what a worker did.
type WorkerStats = platform.WorkerStats

// CheatFunc corrupts a worker's results; nil means honest. Colluding
// workers share one CheatFunc so their wrong values match.
type CheatFunc = platform.CheatFunc

// RunWorker connects to a supervisor, registers, and processes assignments
// until the computation completes. It blocks for the worker's lifetime.
func RunWorker(cfg WorkerConfig) (WorkerStats, error) {
	return platform.RunWorker(cfg)
}

// WorkerCoalition coordinates colluding workers client-side: members share
// one per-task cheat decision so their incorrect results are identical.
type WorkerCoalition = platform.Coalition

// NewWorkerCoalition builds a coalition whose members cheat on each task
// with the given probability (1 = the paper's always-cheat coalition).
func NewWorkerCoalition(cheatProbability float64, seed uint64) *WorkerCoalition {
	return platform.NewCoalition(cheatProbability, seed)
}

// WorkKinds lists the registered work functions of the platform
// ("hashchain", "primecount", "collatz").
func WorkKinds() []string { return platform.WorkKinds() }

// JournalFile is a file-backed journal writer for SupervisorConfig.Journal
// that additionally supports the crash-atomic whole-file replacement
// journal snapshots need (SupervisorConfig.SnapshotInterval).
type JournalFile = platform.JournalFile

// OpenJournalFile opens (creating if absent) a journal file for appending.
func OpenJournalFile(path string) (*JournalFile, error) {
	return platform.OpenJournalFile(path)
}

// Wire protocol names for WorkerConfig.Proto and the daemons' -proto flag:
// newline-delimited JSON (the default, and always the registration format)
// or the negotiated length-prefixed binary framing. PROTOCOL.md specifies
// both.
const (
	ProtoJSON   = platform.ProtoJSON
	ProtoBinary = platform.ProtoBinary
)

// MetricsRegistry collects the platform's runtime metrics — counters,
// gauges, and latency histograms. Serve it over HTTP with Handler (the
// /metrics endpoint, Prometheus text format) or read it in-process with
// Snapshot. OBSERVABILITY.md documents every series.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metrics registry to pass to
// SupervisorConfig.Metrics or WorkerConfig.Metrics.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// EventSink writes the platform's structured event stream: one JSON
// object per line (assignment_issued, result_accepted, mismatch_detected,
// ...; see OBSERVABILITY.md for the schema). A nil sink discards events.
type EventSink = obs.Sink

// NewEventSink wraps w (e.g. an append-mode file) in an event sink to
// pass to SupervisorConfig.Events or WorkerConfig.Events.
func NewEventSink(w io.Writer) *EventSink { return obs.NewSink(w) }

// FaultConfig selects the platform's deterministic fault-injection modes:
// seeded connection drops (at dial, mid-read, mid-write), latency and
// jitter, torn frames, and single-byte corruption. The zero value injects
// nothing. See internal/faults for the failure-schedule semantics.
type FaultConfig = faults.Config

// FaultInjector hands out fault-wrapped connections and listeners,
// replaying the same failure schedule from FaultConfig.Seed. Plug
// Injector.Dial into WorkerConfig.Dial and Injector.Listener into
// SupervisorConfig.WrapListener; cmd/worker and cmd/supervisor expose both
// as -chaos.
type FaultInjector = faults.Injector

// ParseFaultConfig reads a -chaos flag value — comma-separated key=value
// pairs, e.g. "seed=7,drop=0.02,corrupt=0.01,latency=2ms".
func ParseFaultConfig(s string) (FaultConfig, error) { return faults.Parse(s) }

// NewFaultInjector validates cfg and builds an injector.
func NewFaultInjector(cfg FaultConfig) (*FaultInjector, error) { return faults.New(cfg) }

// ClusterConfig is the SupervisorConfig NewCluster takes: one supervisor
// per shard (SupervisorConfig.Shards) over a consistent-hash partition
// (internal/ring) of a single global plan's task IDs, sharing one metrics
// registry. See DESIGN.md §14.
type ClusterConfig = platform.ClusterConfig

// Cluster runs N supervisor shards, each owning its own queue, leases,
// audit state, and journal. KillShard/RestoreShard exercise crash-recovery
// of one shard while the others keep serving; Aggregate merges the
// per-shard audit exports into the run-wide estimate (internal/agg).
type Cluster = platform.Cluster

// NewCluster partitions cfg.Plan across cfg.Shards supervisors and starts
// each on a loopback address.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return platform.NewCluster(cfg) }

// ShardMap is the routing table a sharded worker consumes: ring parameters
// plus live shard endpoints, versioned by an epoch that increments on
// every membership change.
type ShardMap = platform.ShardMap

// ShardInfo describes one shard of a running cluster.
type ShardInfo = platform.ShardInfo

// RunShardedWorker drives one worker across every shard of a cluster,
// routing by a locally rebuilt consistent-hash ring and re-resolving the
// shard map whenever a reply carries a newer epoch.
func RunShardedWorker(cfg WorkerConfig, lookup func() ShardMap) (WorkerStats, error) {
	return platform.RunShardedWorker(cfg, lookup)
}

// ErrBlacklisted marks the terminal refusal a convicted participant
// receives; RunWorker's error wraps it (errors.Is).
var ErrBlacklisted = platform.ErrBlacklisted
