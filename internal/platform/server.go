package platform

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"redundancy/internal/adapt"
	"redundancy/internal/health"
	"redundancy/internal/obs"
	"redundancy/internal/plan"
	"redundancy/internal/rng"
	"redundancy/internal/sched"
	"redundancy/internal/verify"
)

// SupervisorConfig parameterizes a supervisor server.
type SupervisorConfig struct {
	// Plan is the redundancy plan to execute.
	Plan *plan.Plan
	// Policy is the assignment-release discipline (default Free).
	Policy sched.Policy
	// WorkKind names the work function (default "hashchain").
	WorkKind string
	// Iters is the per-task work amount (default 1000).
	Iters int
	// Seed shuffles the assignment order.
	Seed uint64
	// MaxBatch caps how many assignments one get_work lease may carry
	// (0 means DefaultMaxBatch; negative is rejected). Workers ask for
	// their own batch size and receive min(requested, MaxBatch). Setting 1
	// caps every lease at a single assignment without refusing
	// batch-capable workers.
	MaxBatch int
	// Deadline, when positive, bounds how long an assignment may stay out
	// with one participant before it is reclaimed and re-issued to another
	// (volunteer hosts stall, sleep, or disappear silently). A participant
	// submitting after its assignment was reclaimed is rejected.
	Deadline time.Duration
	// IOTimeout, when positive, bounds how long a worker connection may keep
	// the supervisor waiting: the read deadline is armed whenever the
	// supervisor has to wait for the peer (requests already received whole
	// are served without touching it) and the write deadline once per write
	// of replies. A peer that stalls mid-frame (or a slow-loris) is
	// disconnected and its assignments reclaimed, instead of pinning a
	// connection goroutine forever.
	IOTimeout time.Duration
	// Journal, when non-nil, receives one JSON line per accepted result;
	// a supervisor restarted with the same plan and Restore pointed at the
	// journal resumes without re-running completed work. Appends from all
	// connections go through one committer goroutine that coalesces every
	// record arriving during a commit window into one buffered write, and a
	// result is acked only after the window covering its record is down.
	// Only the ack waits for that: the supervisor goes on serving the
	// connection meanwhile (up to maxDeferredAcks submissions ahead), so a
	// client that pipelines may see its next lease before the ack
	// (PROTOCOL.md, "Pipelining and reply order").
	Journal io.Writer
	// JournalSync, when set and Journal has a Sync method (an *os.File),
	// fsyncs once per commit window before any of the window's acks is
	// written, so even a machine crash loses no acked result — at most
	// the torn tail of an unacked window, which replay tolerates.
	JournalSync bool
	// SnapshotInterval, when positive, captures a snapshot of the
	// supervisor's certification state into the journal after every
	// SnapshotInterval appended records (counted, not timed, so behavior
	// is deterministic under test). A snapshot heading a journal replaces
	// the replay of everything it covers. Requires Journal and the Free
	// policy (snapshot restore bulk-completes the queue, which the
	// holdback policies cannot express). 0 disables snapshots.
	SnapshotInterval int
	// Compact, when set (requires SnapshotInterval), makes each snapshot
	// atomically *replace* the journal instead of extending it: the
	// journal then holds one snapshot line plus the records appended
	// since, keeping its size — and the next restore's cost — O(live
	// state) instead of O(run history). Requires a Journal that supports
	// crash-atomic replacement (*JournalFile).
	Compact bool
	// Restore, when non-nil, is replayed at construction (see Journal).
	Restore io.Reader
	// WrapListener, when non-nil, wraps the listener Start creates before
	// any connection is accepted — the hook the fault injector
	// (internal/faults) plugs into on the supervisor side.
	WrapListener func(net.Listener) net.Listener
	// ResultDigits, when positive, matches returned values as float64 bit
	// patterns quantized to that many significant decimal digits instead of
	// exactly — for floating-point workloads whose results agree only to a
	// tolerance across heterogeneous hosts. 0 keeps exact matching.
	ResultDigits int
	// ResolveMismatches enables the "reactive measure" the paper alludes
	// to: when redundancy exposes a mismatch on a regular task, the
	// supervisor recomputes the task itself on trusted hardware, salvaging
	// a correct certified value at precompute cost. Off by default — it is
	// exactly the expensive fallback static redundancy tries to avoid.
	ResolveMismatches bool
	// Logf, when set, receives progress lines (e.g. log.Printf). The
	// supervisor invokes it from multiple goroutines (connection handlers
	// and the deadline sweeper) but serializes every call under its own
	// mutex and recovers panics, so a nil, non-reentrant, or faulty Logf
	// can never take a run down. Nil suppresses logging.
	Logf func(format string, args ...any)
	// Metrics, when non-nil, is the registry the supervisor instruments;
	// serve it with Registry.Handler to expose /metrics. When nil the
	// supervisor still maintains a private registry (reachable via
	// (*Supervisor).Metrics), so counters are always collected.
	// OBSERVABILITY.md documents every series.
	Metrics *obs.Registry
	// Events, when non-nil, receives one structured JSON line per
	// platform event (assignment_issued, result_accepted,
	// mismatch_detected, ...; see OBSERVABILITY.md). Nil discards events.
	Events *obs.Sink
	// Health, when non-nil, turns on participant quarantine: workers whose
	// suspect history or deadline-failure rate crosses the configured
	// thresholds stop receiving regular work, have their outstanding leases
	// reclaimed, and must earn re-admission through a probation of
	// ringer-only assignments (internal/health). Requires the Free policy
	// (probation serves ringers out of order) and, for the probation clock
	// to advance, a positive Deadline (the sweeper drives time-based
	// transitions). Quarantine entries also feed the adaptive p̂ estimator
	// when Adapt is enabled, so the plan and the roster react to the same
	// evidence.
	Health *health.Config
	// SpeculatePct, when in (0,1), enables speculative reissue: the
	// deadline sweeper offers a still-leased copy to a second participant
	// once the lease's age exceeds this percentile of observed completion
	// latency (the "clone at the right moment" policy of arXiv 2402.12584).
	// First result wins; the loser is rejected with reason "duplicate" and
	// never double-credited. Requires a positive Deadline and the Free
	// policy. Latency tracking uses Health's window settings when Health is
	// set, defaults otherwise.
	SpeculatePct float64
	// Tasks, when non-nil, overrides Plan.Tasks() as the concrete task set
	// this supervisor owns — the sharding hook: a cluster partitions the
	// global plan's task IDs across shards by consistent-hash lookup
	// (internal/ring) and hands each shard its subset, so global task IDs
	// (and therefore TaskSeed inputs, ringer truth, and journal records)
	// are preserved shard-locally. Plan is still required: it carries the
	// run-wide ε bookkeeping the aggregator (internal/agg) evaluates.
	// Incompatible with Adapt (one shard must not re-plan the global
	// tail; the cluster's aggregator owns that trigger) and with
	// SnapshotInterval (snapshots capture whole-plan state).
	Tasks []plan.TaskSpec
	// ShardID, when non-empty, marks this supervisor as one shard of a
	// sharded cluster: hot-path counters gain shard_id-labeled series
	// (redundancy_shard_* in OBSERVABILITY.md) and every reply carries
	// the cluster's shard-map epoch once SetEpoch is called.
	ShardID string
	// Adapt, when non-nil, turns on the adaptive redundancy control plane
	// (internal/adapt): the supervisor estimates the adversary share p̂
	// from its verification verdicts and, whenever the estimate's upper
	// confidence bound pushes any active class's P_{k,p̂} below
	// Adapt.TargetEpsilon, journals and applies a plan revision that
	// promotes still-queued tasks and mints fresh ringers. Requires the
	// Free policy (revisions re-shape the queue) and mutates Plan in
	// place via plan.ApplyRevision.
	Adapt *adapt.Config
}

// The supervisor's shared state is split into three independently locked
// subsystems, so concurrent connections contend only for the state their
// current request actually touches (DESIGN.md §11 has the full ownership
// map):
//
//   - leaseState (lease.mu): the assignment queue and who holds what —
//     everything a get_work lease or a reclaim mutates;
//   - auditState (audit.mu): the verification pipeline and its derived
//     judgments — credits, convictions, the adaptive estimator;
//   - identState (ident.mu): the participant directory — IDs, names,
//     resume tokens.
//
// Lock order is lease.mu → audit.mu → ident.mu; the only place two are
// held at once is adaptTick (and construction, which is single-threaded),
// which must atomically re-shape both the queue and the expectations.
// Journal bytes are ordered by jnlMu, and result records additionally by
// audit.mu: a handler queues its records with the committer (a slice
// append, never a wait) before it releases audit.mu, so the journal holds
// results in the order they were adjudicated, which is the order replay
// must feed them back in. Nothing waits for durability but the ack, which
// its connection writes once the committer has published the window
// (connState.wmu, one per connection, orders that connection's writers and
// is never held with a state lock).
// Revision records are written before the copies they enable can exist.

// leaseState guards the scheduler queue and the in-flight assignment
// table. Lease-lifecycle events (assignment_issued, result_accepted,
// assignment_reclaimed) are emitted while holding lease.mu, so the event
// stream is a serialization witness of lease history — the chaos property
// test replays it through a state machine.
type leaseState struct {
	mu       sync.Mutex
	queue    *sched.Queue
	inflight map[outstandingKey]inflightInfo
	finished bool
	draining bool // Shutdown in progress: no new assignments
	// waiters parks get_work requests that found the queue empty; each
	// channel is closed (once) by kickLocked when completions, reclaims,
	// or revisions may have made assignments available. Parking replaces
	// most of the no_work/sleep/retry polling near queue exhaustion.
	waiters []chan struct{}

	// Speculative reissue (SpeculatePct): spec holds at most one duplicate
	// per outstanding copy, issued to a *different* participant than the
	// primary in inflight. Duplicates live entirely outside the queue's
	// accounting — no pop, no Abandon, no Complete — so first-result-wins
	// adjudication never disturbs outstanding/issued counters. specq holds
	// copies the sweeper flagged as straggling, waiting for a second
	// participant to lease them; specLosers remembers, for a grace window,
	// which participant lost each race so a late duplicate submission gets
	// a precise "duplicate" rejection instead of "unassigned".
	spec       map[outstandingKey]inflightInfo
	specq      []outstandingKey
	specLosers map[outstandingKey]specLoser
}

// specLoser records the losing side of a resolved speculative race.
type specLoser struct {
	participant int
	at          time.Time
}

// auditState guards verification and everything verdicts feed: the
// credit ledger, supervisor-resolved disputes, and the adaptive
// estimator. revApplied counts plan revisions applied (live and
// replayed) and doubles as the next revision's journal sequence number.
type auditState struct {
	mu         sync.Mutex
	collector  *verify.Collector
	credits    *CreditLedger
	resolved   map[int]uint64 // taskID → supervisor-recomputed value
	est        *adapt.Estimator
	revApplied int
	// revisions retains every applied revision record (live and replayed),
	// in sequence order — snapshots carry them so a compacted journal can
	// still rebuild the revised plan.
	revisions []revisionRecord
}

// identState guards the participant directory: ID allocation, names, and
// resume credentials.
type identState struct {
	mu     sync.Mutex
	nextID int
	names  map[int]string
	tokens map[int]uint64 // participant → resume credential
}

// Supervisor is the trusted coordinator: it owns the assignment queue and
// the verification pipeline and serves workers over TCP.
type Supervisor struct {
	cfg  SupervisorConfig
	work WorkFunc

	// logMu serializes calls into the user-supplied Logf hook; see logf.
	logMu sync.Mutex

	registry *obs.Registry
	metrics  *supMetrics
	events   *obs.Sink
	// replaying suppresses metric and event emission while journaled
	// results are fed back through the verification pipeline at
	// construction: counters describe what this process observed live.
	replaying bool

	lease leaseState
	audit auditState
	ident identState

	// adaptCfg is immutable after construction (cfg.Adapt != nil).
	adaptCfg adapt.Config

	// roster is the participant health subsystem (nil when neither Health
	// nor SpeculatePct is configured). It locks itself and sits below every
	// state lock, so any handler may feed it observations directly.
	// quarantine gates the state machine: latency tracking runs whenever
	// roster is non-nil, but verdict/reclaim evidence only accumulates (and
	// participants only quarantine) when cfg.Health was given.
	roster     *health.Roster
	quarantine bool

	// qmu guards qpend, the queue of health transitions awaiting their
	// lease-level consequences. Transitions are produced under audit.mu
	// (verdict evidence) where lease.mu cannot be taken (lock order), so
	// entering Quarantined parks here until the next holder of lease.mu
	// drains it and reclaims the participant's outstanding leases. qmu is a
	// leaf lock: taken under audit.mu and lease.mu, never above them.
	qmu   sync.Mutex
	qpend []health.Transition

	restored      int   // results recovered from the journal
	restoredBytes int64 // clean journal prefix length, for tail truncation

	// jnlMu orders journal appends across goroutines (the committer,
	// adaptTick's revision records, and the snapshotter all write under
	// it), so interleaved torn interior writes are impossible. It is a leaf
	// lock below every state lock.
	jnlMu sync.Mutex
	// jnlLines counts the records currently in the journal file (guarded
	// by jnlMu) — what compaction replaces, for exact accounting.
	jnlLines int64
	// jnlSince counts records appended since the last snapshot; snapBusy
	// keeps concurrent trigger crossings from stacking snapshots.
	jnlSince atomic.Int64
	snapBusy atomic.Bool
	// committer is the goroutine every result record reaches the journal
	// through; Start launches it when a Journal is configured.
	committer *journalCommitter

	// epoch is the cluster's shard-map epoch (0 when unsharded): stamped
	// on every reply so workers detect rebalances without polling, and
	// bumped only by the cluster via SetEpoch.
	epoch atomic.Uint64

	done     chan struct{} // closed when every task is adjudicated
	stop     chan struct{} // closed by Close/Shutdown; halts the loops
	stopOnce sync.Once

	ln     net.Listener
	connWG sync.WaitGroup
	loopWG sync.WaitGroup // sweepLoop and adaptLoop

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool // no further connections are admitted
	// busy counts requests between their Recv and the flush that carries
	// their reply (a queued reply is still in user space, and a deferred ack
	// is not even that until its commit is down). A claimed result has
	// already left the in-flight table, so Shutdown's drain waits for this
	// too before it closes the connections — or the ack of the very result
	// it drained for could die with its connection.
	busy atomic.Int64
}

// DefaultMaxBatch is the lease-size cap applied when
// SupervisorConfig.MaxBatch is zero.
const DefaultMaxBatch = 16

// leaseParkMax bounds how long an empty-handed get_work request may park
// waiting for assignments before it falls back to a no_work reply. Long
// enough to absorb the common "queue momentarily empty near the tail"
// window, short enough that a worker still polls through pathological
// stalls.
const leaseParkMax = time.Second

// NewSupervisor validates the configuration and builds the supervisor.
func NewSupervisor(cfg SupervisorConfig) (*Supervisor, error) {
	if cfg.Plan == nil {
		return nil, errors.New("platform: nil plan")
	}
	if cfg.MaxBatch < 0 {
		return nil, errors.New("platform: negative MaxBatch")
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.WorkKind == "" {
		cfg.WorkKind = "hashchain"
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 1000
	}
	work, err := Work(cfg.WorkKind)
	if err != nil {
		return nil, err
	}
	if cfg.SnapshotInterval < 0 {
		return nil, errors.New("platform: negative SnapshotInterval")
	}
	if cfg.SnapshotInterval > 0 {
		if cfg.Journal == nil {
			return nil, errors.New("platform: SnapshotInterval requires a Journal")
		}
		if cfg.Policy != sched.Free {
			return nil, fmt.Errorf("platform: journal snapshots require the free policy, have %v", cfg.Policy)
		}
	}
	if cfg.Compact {
		if cfg.SnapshotInterval <= 0 {
			return nil, errors.New("platform: Compact requires SnapshotInterval")
		}
		if _, ok := cfg.Journal.(journalReplacer); !ok {
			return nil, errors.New("platform: Compact requires a journal supporting atomic replacement (use OpenJournalFile)")
		}
	}
	if cfg.SpeculatePct != 0 {
		if cfg.SpeculatePct < 0 || cfg.SpeculatePct >= 1 {
			return nil, fmt.Errorf("platform: SpeculatePct %v outside (0,1)", cfg.SpeculatePct)
		}
		if cfg.Deadline <= 0 {
			return nil, errors.New("platform: SpeculatePct requires a positive Deadline")
		}
	}
	if (cfg.Health != nil || cfg.SpeculatePct > 0) && cfg.Policy != sched.Free {
		return nil, fmt.Errorf("platform: participant health requires the free policy, have %v", cfg.Policy)
	}
	var roster *health.Roster
	if cfg.Health != nil || cfg.SpeculatePct > 0 {
		hcfg := health.Config{}
		if cfg.Health != nil {
			hcfg = *cfg.Health
		}
		roster, err = health.NewRoster(hcfg)
		if err != nil {
			return nil, err
		}
	}
	if cfg.Tasks != nil {
		if len(cfg.Tasks) == 0 {
			return nil, errors.New("platform: Tasks override is empty (a shard owning no tasks should not be started)")
		}
		if cfg.Adapt != nil {
			return nil, errors.New("platform: Tasks override is incompatible with Adapt (the cluster aggregator owns the global re-planning trigger)")
		}
		if cfg.SnapshotInterval > 0 {
			return nil, errors.New("platform: Tasks override is incompatible with SnapshotInterval")
		}
	}
	var adaptCfg adapt.Config
	if cfg.Adapt != nil {
		if cfg.Policy != sched.Free {
			return nil, fmt.Errorf("platform: adaptive re-planning requires the free policy, have %v", cfg.Policy)
		}
		adaptCfg, err = cfg.Adapt.Normalized()
		if err != nil {
			return nil, err
		}
	}
	registry := cfg.Metrics
	if registry == nil {
		registry = obs.NewRegistry()
	}
	s := &Supervisor{
		cfg:      cfg,
		work:     work,
		registry: registry,
		metrics:  newSupMetrics(registry),
		events:   cfg.Events,
		done:     make(chan struct{}),
		stop:     make(chan struct{}),
		conns:    make(map[net.Conn]struct{}),
	}
	s.lease.inflight = make(map[outstandingKey]inflightInfo)
	s.roster = roster
	s.quarantine = cfg.Health != nil
	if cfg.SpeculatePct > 0 {
		s.lease.spec = make(map[outstandingKey]inflightInfo)
		s.lease.specLosers = make(map[outstandingKey]specLoser)
	}
	s.audit.credits = NewCreditLedger()
	s.audit.resolved = make(map[int]uint64)
	s.ident.names = make(map[int]string)
	s.ident.tokens = make(map[int]uint64)
	if cfg.Adapt != nil {
		s.adaptCfg = adaptCfg
		s.audit.est = adapt.NewEstimator(adaptCfg.Z, adaptCfg.Decay)
	}
	// Ringer truth: the supervisor precomputes the work function itself.
	s.audit.collector = verify.NewCollector(func(taskID int) uint64 {
		return work(TaskSeed(taskID), cfg.Iters)
	})
	if cfg.ResultDigits > 0 {
		s.audit.collector.SetComparator(verify.Quantize{Digits: cfg.ResultDigits})
	}
	// Credit accounting: awarded only at certification, so claiming credit
	// for uncompleted or rejected work is structurally impossible; a
	// conviction revokes a participant's standing entirely. The callback
	// fires inside Collector.Submit, i.e. under audit.mu (or during
	// single-threaded construction replay), which is what makes the
	// estimator and ledger updates safe.
	s.audit.collector.OnVerdict(func(v *verify.Verdict) {
		if s.audit.est != nil {
			// Adaptive evidence: every adjudicated copy is one Bernoulli
			// observation, attributed copies are the bad ones. Fed during
			// replay too, so p̂ survives a restart along with the plan.
			s.audit.est.Observe(v.Copies, len(v.Suspects))
		}
		if v.Accepted {
			s.audit.credits.Award(v.Contributors)
		}
		if v.Ringer && v.MismatchDetected {
			for _, p := range v.Suspects {
				s.audit.credits.Revoke(p)
			}
		}
		if s.roster != nil && s.quarantine {
			// Health evidence: every contributor gets one verdict
			// observation, implicated or clean. Fed during replay too, so a
			// participant quarantined before a crash is still quarantined
			// after restore — pushTransition suppresses the side effects
			// (events, metrics, estimator, lease reclaim) while replaying,
			// and there are no outstanding leases to reclaim then anyway.
			now := time.Now()
			suspect := make(map[int]bool, len(v.Suspects))
			for _, p := range v.Suspects {
				suspect[p] = true
			}
			for _, p := range v.Contributors {
				if tr := s.roster.ObserveVerdict(p, suspect[p], v.Ringer, now); tr != nil {
					s.pushTransition(*tr, true)
				}
			}
		}
		if s.replaying {
			return // restored verdicts were counted by the previous process
		}
		if v.Accepted {
			s.metrics.tasksCertified.Inc()
		}
		if v.MismatchDetected {
			s.metrics.mismatchDetected.Inc()
			if s.events != nil {
				s.events.Emit(EvMismatchDetected, map[string]any{
					"task": v.TaskID, "ringer": v.Ringer, "suspects": v.Suspects,
				})
			}
			if v.Ringer {
				s.metrics.ringerFailures.Inc()
				s.metrics.convictions.Add(uint64(len(v.Suspects)))
				if s.events != nil {
					s.events.Emit(EvRingerFailed, map[string]any{
						"task": v.TaskID, "suspects": v.Suspects,
					})
				}
			}
		}
	})
	if cfg.ShardID != "" {
		s.metrics.bindShard(cfg.ShardID)
	}
	specs := cfg.Tasks
	if specs == nil {
		specs = cfg.Plan.Tasks()
	}
	s.audit.collector.ExpectAll(specs)
	s.lease.queue, err = sched.NewQueue(specs, cfg.Policy, rng.New(cfg.Seed))
	if err != nil {
		return nil, err
	}
	if cfg.Restore != nil {
		start := time.Now()
		s.replaying = true
		rp := &supReplayer{s: s}
		st, err := replayJournal(cfg.Restore, rp)
		if err == nil {
			err = rp.flush()
		}
		s.replaying = false
		if err != nil {
			return nil, err
		}
		s.observeRestore(start)
		s.restored = st.restored
		s.restoredBytes = st.validBytes
		s.jnlLines = int64(st.lines)
		s.metrics.journalRestored.Add(uint64(st.restored))
		if st.maxParticipant >= s.ident.nextID {
			s.ident.nextID = st.maxParticipant + 1 // never reuse a journaled participant ID
		}
		s.logf("restored %d results from journal (%d assignments remain)",
			st.restored, s.lease.queue.Total()-s.lease.queue.Issued())
		if s.lease.queue.Done() {
			s.lease.finished = true
			close(s.done)
		}
	}
	return s, nil
}

// logf is the single guarded gateway to the user-supplied Logf hook. It
// is called from connection goroutines and the deadline sweeper
// concurrently, so it serializes calls under its own mutex (the hook may
// not be reentrant) and recovers panics: a broken Logf loses a log line,
// never the computation.
func (s *Supervisor) logf(format string, args ...any) {
	fn := s.cfg.Logf
	if fn == nil {
		return
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	defer func() { _ = recover() }()
	fn(format, args...)
}

// Metrics returns the registry the supervisor instruments — the one from
// SupervisorConfig.Metrics, or the private registry created when that was
// nil. Safe to call and scrape at any time.
func (s *Supervisor) Metrics() *obs.Registry { return s.registry }

// SetEpoch publishes the cluster's shard-map epoch: every subsequent
// reply carries it, telling workers to re-resolve their routing when it
// moves. The cluster bumps it on every shard kill/restore (rebalance);
// unsharded supervisors leave it 0 and the field stays off the wire.
func (s *Supervisor) SetEpoch(e uint64) { s.epoch.Store(e) }

// Epoch reports the currently published shard-map epoch (0 = unsharded).
func (s *Supervisor) Epoch() uint64 { return s.epoch.Load() }

// RestoredJournalBytes reports the length of the journal prefix that
// replayed cleanly at construction (0 without Restore). A caller reusing
// the same journal file for appending should truncate it to this length
// first, removing any torn tail a crashed predecessor left behind;
// cmd/supervisor does exactly that.
func (s *Supervisor) RestoredJournalBytes() int64 { return s.restoredBytes }

// Start begins listening on addr (e.g. "127.0.0.1:0") and serving workers.
// It returns the bound address.
func (s *Supervisor) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	if s.cfg.WrapListener != nil {
		ln = s.cfg.WrapListener(ln)
	}
	s.ln = ln
	if s.cfg.Journal != nil {
		s.committer = newJournalCommitter(s)
	}
	go s.acceptLoop()
	if s.cfg.Deadline > 0 || s.roster != nil {
		s.loopWG.Add(1)
		go func() { defer s.loopWG.Done(); s.sweepLoop() }()
	}
	if s.audit.est != nil {
		s.loopWG.Add(1)
		go func() { defer s.loopWG.Done(); s.adaptLoop() }()
	}
	s.logf("supervisor listening on %s (%d assignments, %d tasks)",
		ln.Addr(), s.lease.queue.Total(), s.cfg.Plan.N+s.cfg.Plan.Ringers)
	return ln.Addr().String(), nil
}

func (s *Supervisor) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.connMu.Lock()
		if s.closed {
			s.connMu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			defer func() {
				s.connMu.Lock()
				delete(s.conns, conn)
				s.connMu.Unlock()
				conn.Close()
			}()
			if err := s.serve(conn); err != nil && !errors.Is(err, io.EOF) {
				s.logf("connection error: %v", err)
			}
		}()
	}
}

// closeConns stops admitting connections and force-closes every open one;
// their serve loops return on the next read or write.
func (s *Supervisor) closeConns() {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
}

// connState tracks the assignments a single connection currently holds
// (keyed by assignment, valued by the participant it was issued to), so
// work lost to a dropped connection can be re-issued. held is shared
// state (the sweeper and resumed connections reach into it) and is
// guarded by lease.mu; the write side is guarded by wmu; everything else
// is touched only by this connection's serve goroutine.
type connState struct {
	held map[outstandingKey]int
	// registered holds the participant IDs created (or resumed) over this
	// connection; work requests and results must name one of them, so a
	// client cannot impersonate another participant (e.g. by guessing a
	// small ID). Resuming requires the supervisor-minted token.
	registered map[int]bool
	// names caches the display names of participants registered here, so
	// the hot path never takes ident.mu just to label a metric.
	names map[int]string

	conn  net.Conn
	codec *Codec

	// The connection's write side, one writer at a time under wmu: replies
	// are queued in codec and leave together in flushLocked. queued counts
	// the replies sitting in the codec, each of them a request Shutdown's
	// drain still counts as busy; werr is the write error that ended the
	// connection.
	wmu    sync.Mutex
	queued int64
	werr   error
	// seenJSON and seenBin are the codec's wire-byte totals already folded
	// into redundancy_wire_bytes_total.
	seenJSON, seenBin int64

	// deferred is the ring of acks waiting for their commit: slots
	// dhead..dtail-1 (mod its size), oldest first, both counts under wmu.
	// serve fills slot dtail and publishes it by raising dtail; being the
	// only one to raise it, serve may read dtail bare. Whoever flushes next
	// after a slot's window is down pops it. Each is a request the drain
	// still counts as busy.
	deferred     [maxDeferredAcks]deferredAck
	dhead, dtail uint
	// kick (buffered 1) tells the connection's ack goroutine that the ring
	// went non-empty; gone is closed when serve returns. Both are made with
	// the goroutine, at the connection's first deferred ack.
	kick chan struct{}
	gone chan struct{}

	// Per-request scratch, reused across the serve loop: a reply is fully
	// encoded into the codec's buffer before the next request is read, so
	// its backing arrays are free again. This removes the per-batch slice
	// allocations from the hot path. What outlives the request (a deferred
	// ack and the records its commit reads) lives in the deferred ring.
	items []WorkItem
	fill  []sched.Assignment
	pend  []pendingResult
	one   [1]ResultItem // a single-verb result, as the batch it is served as
}

// deferredAck is the reply to one result submission whose records are with
// the committer: it is written once request seq is durable. The slot owns
// its storage because both outlive the handler: the committer reads recs
// until the window is down, and acks are encoded only then.
type deferredAck struct {
	acks   []ResultAck
	recs   []journalRecord
	seq    uint64
	single bool // submitted as result: the reply is ack, not batch_ack
}

// maxQueuedReplyBytes bounds the replies one connection may have queued:
// past it serve flushes even though further requests are already buffered.
// Far above a pipelined cycle's ack plus lease, so a conforming worker
// never meets it.
const maxQueuedReplyBytes = 64 << 10

// maxDeferredAcks bounds how far one connection may run ahead of the disk:
// with this many submissions awaiting their commit, serve waits for the
// oldest before it reads the next request. It bounds what a peer can pin
// (the ring), what a worker must resubmit after a crash, and how far Wait
// can return ahead of durability (connections × maxDeferredAcks × MaxBatch
// records). A bound of zero would be a handler that waits out every commit.
const maxDeferredAcks = 8

func newConnState(conn net.Conn) *connState {
	return &connState{
		held:       make(map[outstandingKey]int),
		registered: make(map[int]bool),
		names:      make(map[int]string),
		conn:       conn,
		codec:      NewCodec(conn),
	}
}

// serve handles one worker connection. When the connection ends — cleanly
// or not — any assignment it still holds is returned to the queue and
// re-issued to another participant: volunteer hosts leave all the time and
// the computation must not stall on them.
//
// Requests are handled strictly in arrival order and every reply but one
// kind is queued in that order: the ack of a result submission that
// journaled something is deferred until its commit window is down
// (resultBatch), and serve goes straight on to the next request, so the
// lease riding behind the results leaves at once and may overtake their
// ack. Acks stay in submission order among themselves, everything else in
// request order. The queue is flushed whenever the goroutine is about to
// block: in beforeRecv, when the read buffer does not hold a whole further
// request or the connection has run maxDeferredAcks commits ahead of the
// disk, and in the handlers before a lease parks. A client that pipelines
// its results and its next work request is therefore answered in one write
// (two with a journal: the lease, then the ack when the disk has it), and
// one that waits for each reply gets each reply alone. The queue is also
// flushed once it passes maxQueuedReplyBytes, so a peer that keeps sending
// and never reads costs the supervisor that much memory and then blocks it
// in a write, as it would have with a write per reply.
func (s *Supervisor) serve(conn net.Conn) error {
	cs := newConnState(conn)
	codec := cs.codec
	s.metrics.workersConnected.Inc()
	defer s.metrics.workersConnected.Dec()
	defer s.reclaim(cs)
	defer s.endWrites(cs)
	for {
		if err := s.beforeRecv(cs); err != nil {
			return err
		}
		m, err := codec.Recv()
		if err != nil {
			return err
		}
		s.busy.Add(1)
		var reply Message
		switch m.Type {
		case MsgRegister:
			reply = s.register(m, cs)
		case MsgRequestWork, MsgGetWork, MsgResult, MsgResultBatch:
			if !cs.registered[m.ParticipantID] {
				reply = Message{Type: MsgError, Reason: ReasonUnregistered,
					Error: "participant not registered on this connection"}
				break
			}
			// The single-item verbs are size-1 leases translated here, at
			// the connection edge: one item in, one item out, same core.
			switch m.Type {
			case MsgRequestWork:
				reply = s.leaseBatch(m.ParticipantID, 1, true, cs)
				if reply.Type == MsgWorkBatch {
					it := reply.Work[0]
					reply = Message{Type: MsgWork, TaskID: it.TaskID, Copy: it.Copy,
						Kind: reply.Kind, Seed: it.Seed, Iters: reply.Iters}
				}
			case MsgGetWork:
				reply = s.leaseBatch(m.ParticipantID, m.Batch, false, cs)
			case MsgResult, MsgResultBatch:
				single := m.Type == MsgResult
				if single {
					cs.one[0] = ResultItem{TaskID: m.TaskID, Copy: m.Copy, Value: m.Value}
					m.Results = cs.one[:]
				}
				acks, deferred := s.resultBatch(m.ParticipantID, m.Results, single, cs)
				if deferred {
					continue // the ack follows its commit; the request stays busy till then
				}
				reply = ackReply(acks, single)
			}
		default:
			reply = Message{Type: MsgError, Reason: ReasonUnknownType,
				Error: fmt.Sprintf("unknown message type %q", m.Type)}
		}
		cs.wmu.Lock()
		err = s.queueLocked(cs, reply)
		cs.wmu.Unlock()
		if err != nil {
			s.busy.Add(-1)
			return err
		}
	}
}

// ackReply shapes a submission's acks as the reply its verb expects: a
// batch_ack, or for a single result the ack or error it is re-shaped into.
func ackReply(acks []ResultAck, single bool) Message {
	if !single {
		return Message{Type: MsgBatchAck, Acks: acks}
	}
	if a := acks[0]; !a.OK {
		return Message{Type: MsgError, Reason: a.Reason, Error: a.Error}
	}
	return Message{Type: MsgAck}
}

// queueLocked encodes one reply behind those already queued. Callers hold
// wmu.
func (s *Supervisor) queueLocked(cs *connState, reply Message) error {
	// Shard-map epoch: every reply from a sharded supervisor carries the
	// cluster's current epoch, so a worker learns of a rebalance on its
	// very next round trip and re-resolves its routing. 0 (unsharded, or a
	// cluster that never rebalanced its bootstrap epoch) is omitted from
	// the wire entirely.
	if e := s.epoch.Load(); e != 0 {
		reply.Epoch = e
	}
	if err := cs.codec.queue(reply); err != nil {
		return err
	}
	cs.queued++
	// Codec negotiation: the registered reply that echoes proto=bin is the
	// last JSON frame on the connection; both sides switch after it.
	if reply.Type == MsgRegistered && reply.Proto == ProtoBinary && !cs.codec.Binary() {
		cs.codec.EnableBinary()
	}
	return nil
}

// beforeRecv readies the connection for serve's next Recv. A connection
// that has run maxDeferredAcks commits ahead of the disk waits here for its
// oldest. The queue is flushed if the Recv can block on the peer or the
// queue has passed its bound. Only a Recv that can block needs a read
// deadline (the requests of a burst already received are served under
// none), and the peer's clock runs only while the next move is the peer's:
// with an ack of its own still waiting for the disk, its silence is the
// supervisor's doing, and the flush that carries its last ack starts the
// clock (flushLocked).
func (s *Supervisor) beforeRecv(cs *connState) error {
	blocking := !cs.codec.buffered()
	cs.wmu.Lock()
	defer cs.wmu.Unlock()
	s.awaitDeferredLocked(cs, maxDeferredAcks-1)
	if blocking || cs.codec.pending() > maxQueuedReplyBytes {
		s.flushLocked(cs)
	}
	if cs.werr != nil {
		return cs.werr // this flush, a handler's or the ack goroutine's found the connection dead
	}
	if blocking && s.cfg.IOTimeout > 0 {
		var deadline time.Time
		if cs.dhead == cs.dtail {
			deadline = time.Now().Add(s.cfg.IOTimeout)
		}
		cs.conn.SetReadDeadline(deadline)
	}
	return nil
}

// flushReplies writes what the connection has queued; see flushLocked.
// Handlers call it before they park, so a reply is never held behind a
// parked lease.
func (s *Supervisor) flushReplies(cs *connState) error {
	cs.wmu.Lock()
	defer cs.wmu.Unlock()
	return s.flushLocked(cs)
}

// flushLocked writes the connection's queued replies, and every deferred
// ack whose commit is down by now, in one socket write, and lowers
// Shutdown's busy count by the requests they answer; with nothing to send
// it is free. The request being handled stays counted as busy until its
// own reply is flushed. A write error is sticky: serve ends the connection
// at its next beforeRecv. Callers hold wmu.
func (s *Supervisor) flushLocked(cs *connState) error {
	if cs.werr != nil {
		return cs.werr
	}
	acked := s.queueDurableLocked(cs)
	if cs.queued == 0 {
		return cs.werr
	}
	if s.cfg.IOTimeout > 0 {
		cs.conn.SetWriteDeadline(time.Now().Add(s.cfg.IOTimeout))
	}
	s.metrics.connFlushes.Inc()
	cs.werr = cs.codec.flush()
	s.foldWire(cs)
	s.busy.Add(-cs.queued)
	cs.queued = 0
	if acked > 0 && cs.dhead == cs.dtail && s.cfg.IOTimeout > 0 {
		// The peer has its last ack: the next move is its own again. (serve
		// may be in a Recv that beforeRecv armed with no deadline.)
		cs.conn.SetReadDeadline(time.Now().Add(s.cfg.IOTimeout))
	}
	return cs.werr
}

// queueDurableLocked queues, oldest first, every deferred ack whose commit
// window is down and reports how many. This is the one place a deferred ack
// is encoded, and it runs only after the committer published the window:
// no ack is ever written before the fsync covering its records returned.
// Callers hold wmu.
func (s *Supervisor) queueDurableLocked(cs *connState) (n int) {
	for cs.dhead != cs.dtail && cs.werr == nil {
		d := &cs.deferred[cs.dhead%maxDeferredAcks]
		if s.committer.durable.Load() < d.seq {
			break
		}
		if err := s.queueLocked(cs, ackReply(d.acks, d.single)); err != nil {
			cs.werr = err // the ack cannot be framed; endWrites drops it
			break
		}
		cs.dhead++
		n++
	}
	return n
}

// awaitDeferredLocked blocks until at most keep of the connection's acks
// still wait for their commit, queueing each as its window comes down.
// What is already queued is flushed before a wait, so nothing already
// answered waits out a commit. Called, and returns, with wmu held; the wait
// itself holds nothing.
func (s *Supervisor) awaitDeferredLocked(cs *connState, keep uint) {
	for {
		s.queueDurableLocked(cs)
		if cs.dtail-cs.dhead <= keep || cs.werr != nil {
			return
		}
		seq := cs.deferred[(cs.dtail-keep-1)%maxDeferredAcks].seq
		s.flushLocked(cs)
		cs.wmu.Unlock()
		s.committer.wait(seq, nil)
		cs.wmu.Lock()
	}
}

// deferAck publishes the slot resultBatch just filled and wakes the
// connection's ack goroutine, starting it at the connection's first
// deferred ack. Only serve calls it.
func (s *Supervisor) deferAck(cs *connState) {
	cs.wmu.Lock()
	cs.dtail++
	cs.wmu.Unlock()
	if cs.kick == nil {
		cs.kick = make(chan struct{}, 1)
		cs.gone = make(chan struct{})
		s.connWG.Add(1) // under serve's own count, so never from zero
		go func() { defer s.connWG.Done(); s.ackLoop(cs) }()
	}
	select {
	case cs.kick <- struct{}{}:
	default:
	}
}

// ackLoop is the connection's second writer, the one that belongs to the
// connection and not to the committer (which signals and never blocks on a
// peer): it sleeps until the oldest deferred ack's window is down, then
// takes the write side and flushes it, under the same write deadline as
// every flush. serve is usually blocked in a Recv by then; when it is not,
// whichever of the two flushes first carries the ack. It ends with the
// connection.
func (s *Supervisor) ackLoop(cs *connState) {
	for {
		cs.wmu.Lock()
		dead := cs.werr != nil
		pending := cs.dhead != cs.dtail
		var seq uint64
		if pending {
			seq = cs.deferred[cs.dhead%maxDeferredAcks].seq
		}
		cs.wmu.Unlock()
		if dead {
			return
		}
		if !pending {
			select {
			case <-cs.kick:
				continue
			case <-cs.gone:
				return
			}
		}
		if !s.committer.wait(seq, cs.gone) {
			return
		}
		_ = s.flushReplies(cs) // a dead connection is found at the top
	}
}

// endWrites closes the connection's write side as serve returns: however
// the connection ends, the replies already produced still go out (best
// effort), and Shutdown's drain stops counting the requests whose replies a
// dead connection never took, the acks still waiting for the disk among
// them (their results are claimed and journaled regardless).
func (s *Supervisor) endWrites(cs *connState) {
	cs.wmu.Lock()
	_ = s.flushLocked(cs) // the connection is ending either way
	s.foldWire(cs)        // bytes received since the last flush
	s.busy.Add(-cs.queued - int64(cs.dtail-cs.dhead))
	cs.queued, cs.dhead = 0, cs.dtail
	cs.wmu.Unlock()
	if cs.gone != nil {
		close(cs.gone)
	}
}

// foldWire adds the codec's wire-byte totals to the per-codec counters as
// deltas, at every flush and at disconnect, so /metrics lags a connection
// by at most one flush. Callers hold wmu.
func (s *Supervisor) foldWire(cs *connState) {
	j, b := cs.codec.WireBytes()
	if d := j - cs.seenJSON; d > 0 {
		s.metrics.wireBytesJSON.Add(uint64(d))
		cs.seenJSON = j
	}
	if d := b - cs.seenBin; d > 0 {
		s.metrics.wireBytesBin.Add(uint64(d))
		cs.seenBin = b
	}
}

// reclaim re-queues every assignment a dead connection still held and
// records the departure of every participant registered on it. An
// assignment that the deadline sweeper already reclaimed — or that a
// resumed connection took ownership of — is left alone: ownership is
// verified before abandoning.
func (s *Supervisor) reclaim(cs *connState) {
	s.lease.mu.Lock()
	reclaimed := 0
	for key, holder := range cs.held {
		info, ok := s.lease.inflight[key]
		if !ok || info.participant != holder || info.owner != cs {
			continue
		}
		delete(s.lease.inflight, key)
		s.metrics.reclaimed.With("disconnect").Inc()
		if s.events != nil {
			s.events.Emit(EvAssignmentReclaimed, map[string]any{
				"task": info.a.TaskID, "copy": info.a.Copy,
				"participant": info.participant, "reason": "disconnect",
			})
		}
		if twin, dup := s.lease.spec[key]; dup {
			// The departed primary had a live speculative clone: hand the
			// copy to the clone instead of re-queueing it. Abandoning here
			// would put the copy back in the ready pool while the clone is
			// still out — a third issue, and broken accounting when both
			// complete.
			delete(s.lease.spec, key)
			twin.speculated = false
			s.lease.inflight[key] = twin
			reclaimed++
			continue
		}
		s.lease.queue.Abandon(info.a)
		reclaimed++
		s.logf("reclaimed task %d copy %d from departed participant %d",
			info.a.TaskID, info.a.Copy, info.participant)
	}
	// Speculative clones are tracked only in the spec map (never cs.held);
	// drop any this connection was running and let the primary try again.
	for key, twin := range s.lease.spec {
		if twin.owner != cs {
			continue
		}
		delete(s.lease.spec, key)
		if info, ok := s.lease.inflight[key]; ok {
			info.speculated = false
			s.lease.inflight[key] = info
		}
	}
	if reclaimed > 0 {
		s.kickLeaseLocked() // abandoned copies are available again
	}
	s.lease.mu.Unlock()
	if s.events != nil {
		for id := range cs.registered {
			s.events.Emit(EvWorkerLeft, map[string]any{"participant": id, "name": cs.names[id]})
		}
	}
}

// kickLeaseLocked wakes every parked get_work request; each re-checks the
// queue under lease.mu. Called (with lease.mu held) wherever assignments
// may have become available — completions that release held-back copies,
// reclaims, plan revisions — and wherever parked requests must observe a
// state change (draining, finished). Channels are closed exactly once:
// the slice is emptied here and each parked request appends a fresh one.
func (s *Supervisor) kickLeaseLocked() {
	for _, ch := range s.lease.waiters {
		close(ch)
	}
	s.lease.waiters = s.lease.waiters[:0]
}

// newToken mints an unguessable resume credential. Identity resumption is
// authenticated by this token, not by the (small, guessable) participant
// ID, so a malicious client cannot hijack another participant's identity
// and accrued credit.
func newToken() uint64 {
	var b [8]byte
	crand.Read(b[:]) // never fails; panics on broken platforms
	tok := binary.LittleEndian.Uint64(b[:])
	if tok == 0 {
		tok = 1 // 0 means "no token" on the wire
	}
	return tok
}

// register mints a new identity, or — with Resume set and a valid token —
// re-attaches an existing one to this connection, transferring any
// in-flight assignments so they are re-issued here instead of reclaimed
// when the old connection's goroutine notices the drop.
func (s *Supervisor) register(m Message, cs *connState) Message {
	if m.Resume {
		s.ident.mu.Lock()
		tok, ok := s.ident.tokens[m.ParticipantID]
		name := s.ident.names[m.ParticipantID]
		s.ident.mu.Unlock()
		if !ok || m.Token == 0 || m.Token != tok {
			return Message{Type: MsgError, Reason: ReasonResumeRefused,
				Error: "unknown participant or bad token"}
		}
		if s.convicted(m.ParticipantID) {
			return Message{Type: MsgError, Reason: ReasonBlacklisted,
				Error: "participant is blacklisted"}
		}
		moved := 0
		s.lease.mu.Lock()
		for key, info := range s.lease.inflight {
			if info.participant != m.ParticipantID {
				continue
			}
			if info.owner != nil && info.owner != cs {
				delete(info.owner.held, key)
			}
			info.owner = cs
			s.lease.inflight[key] = info
			cs.held[key] = m.ParticipantID
			moved++
		}
		for key, twin := range s.lease.spec {
			if twin.participant != m.ParticipantID {
				continue
			}
			twin.owner = cs
			s.lease.spec[key] = twin
			moved++
		}
		s.lease.mu.Unlock()
		cs.registered[m.ParticipantID] = true
		cs.names[m.ParticipantID] = name
		s.metrics.workersResumed.Inc()
		if s.events != nil {
			s.events.Emit(EvWorkerResumed, map[string]any{
				"participant": m.ParticipantID, "name": name, "inflight": moved,
			})
		}
		s.logf("participant %d (%s) resumed with %d in-flight assignment(s)",
			m.ParticipantID, name, moved)
		return Message{Type: MsgRegistered, ParticipantID: m.ParticipantID, Token: tok,
			Proto: negotiateProto(m.Proto)}
	}
	s.ident.mu.Lock()
	id := s.ident.nextID
	s.ident.nextID++
	s.ident.names[id] = m.Name
	tok := newToken()
	s.ident.tokens[id] = tok
	s.ident.mu.Unlock()
	cs.registered[id] = true
	cs.names[id] = m.Name
	s.metrics.workersRegistered.Inc()
	if s.events != nil {
		s.events.Emit(EvWorkerJoined, map[string]any{"participant": id, "name": m.Name})
	}
	s.logf("registered participant %d (%s)", id, m.Name)
	return Message{Type: MsgRegistered, ParticipantID: id, Token: tok,
		Proto: negotiateProto(m.Proto)}
}

// negotiateProto maps a register request's proto capability to the codec
// the supervisor will speak after the registered reply. Only proto=bin is
// recognized; anything else — absent, "json", or a capability from the
// future — keeps the connection on newline-delimited JSON, so old and new
// peers interoperate in both directions.
func negotiateProto(requested string) string {
	if requested == ProtoBinary {
		return ProtoBinary
	}
	return ""
}

// convicted answers the blacklist question under audit.mu. Only
// conclusive (ringer) evidence denies further work: a 2-way mismatch
// cannot say which party lied, and refusing every suspect would let an
// adversary starve the computation by framing honest participants.
func (s *Supervisor) convicted(participant int) bool {
	s.audit.mu.Lock()
	defer s.audit.mu.Unlock()
	return s.audit.collector.Convicted(participant)
}

// leaseBatch fills one lease: under lease.mu it first re-issues every
// surviving assignment this participant already holds — the whole lease
// comes back after a resume, so a reconnect never duplicates queue state —
// then fills the remainder with fresh queue pops, up to min(want,
// MaxBatch). A request that finds the queue empty parks on a waiter
// channel (up to leaseParkMax) instead of immediately bouncing a
// no_work/sleep/retry cycle off the supervisor; completions, reclaims,
// and revisions kick parked requests awake. single marks a request_work,
// whose reply has room for exactly one item. The time the request spends
// in here, queue wait and parking included, is the lease-wait histogram.
func (s *Supervisor) leaseBatch(pid, want int, single bool, cs *connState) Message {
	defer func(start time.Time) {
		s.metrics.leaseWait.Observe(time.Since(start).Seconds())
	}(time.Now())
	if s.metrics.shardRouted != nil {
		s.metrics.shardRouted.Inc()
	}
	if s.convicted(pid) {
		return Message{Type: MsgError, Reason: ReasonBlacklisted, Error: "participant is blacklisted"}
	}
	// Health gate: quarantined participants lease nothing; probationary
	// ones lease only ringers (work whose answer the supervisor already
	// knows), so re-admission can be earned without risking real results.
	// AnyUnhealthy keeps the all-healthy hot path to one atomic-free check.
	probation := false
	if s.roster != nil && s.roster.AnyUnhealthy() {
		switch s.roster.State(pid) {
		case health.Quarantined:
			return Message{Type: MsgNoWork, Wait: 0.5}
		case health.Probation:
			probation = true
		}
	}
	if want < 1 {
		want = 1
	}
	if want > s.cfg.MaxBatch {
		want = s.cfg.MaxBatch
	}
	items := cs.items[:0]
	fresh, reissues, specIssued := 0, 0, 0
	var deadline time.Time // parking budget; set on first empty pass
	var empty Message      // the reply when the request ends empty-handed
	s.lease.mu.Lock()
	// Re-issues are not capped by want: the worker must learn about every
	// assignment it still holds, or a resumed lease could silently shrink.
	// A request_work reply carries one item, so there the rest of the held
	// set comes back on the following requests.
	for key, holder := range cs.held {
		if single && len(items) == 1 {
			break
		}
		info, ok := s.lease.inflight[key]
		if !ok || info.participant != holder || info.owner != cs {
			delete(cs.held, key)
			continue
		}
		if holder != pid {
			continue
		}
		info.issuedAt = time.Now()
		s.lease.inflight[key] = info
		reissues++
		if s.events != nil {
			s.events.Emit(EvAssignmentIssued, map[string]any{
				"task": info.a.TaskID, "copy": info.a.Copy,
				"participant": pid, "ringer": info.a.Ringer, "reissue": true,
			})
		}
		items = append(items, WorkItem{TaskID: info.a.TaskID, Copy: info.a.Copy, Seed: TaskSeed(info.a.TaskID)})
	}
	for {
		if s.lease.finished {
			empty = Message{Type: MsgDone}
			break
		}
		// Straggler clones go out ahead of fresh queue pops — a flagged copy
		// is the work blocking a task's certification, so it is the most
		// valuable lease in the system. Healthy requesters only, and never
		// back to the straggler itself.
		if !s.lease.draining && !probation && len(items) < want {
			specIssued += s.fillSpeculativeLocked(pid, cs, want, &items)
		}
		if !s.lease.draining && len(items) < want {
			fill := cs.fill[:0]
			if probation {
				for len(items)+len(fill) < want {
					a, ok := s.lease.queue.NextRinger()
					if !ok {
						break
					}
					fill = append(fill, a)
				}
			} else {
				fill = s.lease.queue.NextBatch(fill, want-len(items))
			}
			cs.fill = fill[:0]
			now := time.Now()
			for _, a := range fill {
				key := outstandingKey{a.TaskID, a.Copy}
				s.lease.inflight[key] = inflightInfo{
					participant: pid, a: a, issuedAt: now, owner: cs,
				}
				cs.held[key] = pid
				fresh++
				if s.events != nil {
					ev := map[string]any{"task": a.TaskID, "copy": a.Copy, "participant": pid, "ringer": a.Ringer}
					if probation {
						ev["probation"] = true
					}
					s.events.Emit(EvAssignmentIssued, ev)
				}
				items = append(items, WorkItem{TaskID: a.TaskID, Copy: a.Copy, Seed: TaskSeed(a.TaskID)})
			}
		}
		if len(items) > 0 {
			break
		}
		if probation {
			// No ringer ready and none held. Probation is time-bounded:
			// when the ringer supply is spent (some plans mint none at
			// all), a participant that has sat out a full extra Probation
			// period re-admits on the clock — otherwise a fleet-wide
			// quarantine deadlocks the run with work still queued. On
			// re-admission, fall through to the regular pool this pass.
			if tr := s.roster.ObserveRingerStarved(pid, time.Now()); tr != nil {
				s.pushTransition(*tr, false)
				probation = false
				continue
			}
			// Still on the clock; do not park a probationary worker against
			// the regular pool, just have it retry.
			empty = Message{Type: MsgNoWork, Wait: 0.5}
			break
		}
		if s.lease.draining {
			empty = Message{Type: MsgNoWork, Wait: 0.2}
			break
		}
		if s.lease.queue.Done() {
			empty = Message{Type: MsgDone}
			break
		}
		if deadline.IsZero() {
			deadline = time.Now().Add(leaseParkMax)
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			empty = Message{Type: MsgNoWork, Wait: 0.05}
			break
		}
		ch := make(chan struct{})
		s.lease.waiters = append(s.lease.waiters, ch)
		s.lease.mu.Unlock()
		// The replies queued ahead of this request (the ack of the results
		// it was pipelined behind) must not wait out the park.
		if s.flushReplies(cs) != nil {
			return Message{Type: MsgNoWork, Wait: 0.2} // dead connection; serve ends it
		}
		t := time.NewTimer(wait)
		stopped := false
		select {
		case <-ch:
		case <-t.C:
		case <-s.stop:
			stopped = true
		}
		t.Stop()
		if stopped {
			// Teardown in progress; the connection is about to be closed.
			return Message{Type: MsgNoWork, Wait: 0.2}
		}
		s.lease.mu.Lock()
	}
	s.lease.mu.Unlock()
	if len(items) == 0 {
		return empty
	}
	cs.items = items // keep the grown backing array for the next lease
	if reissues > 0 {
		s.metrics.reissued.Add(uint64(reissues))
	}
	if fresh > 0 {
		s.metrics.assignmentsIssued.Add(uint64(fresh))
		if s.metrics.shardIssued != nil {
			s.metrics.shardIssued.Add(uint64(fresh))
		}
	}
	if specIssued > 0 {
		s.metrics.speculativeIssued.Add(uint64(specIssued))
	}
	s.metrics.batchesIssued.Inc()
	s.metrics.batchSize.Observe(float64(len(items)))
	return Message{Type: MsgWorkBatch, Kind: s.cfg.WorkKind, Iters: s.cfg.Iters, Work: items}
}

// fillSpeculativeLocked serves flagged straggler copies to a second
// participant, up to the lease's capacity and ahead of fresh queue work
// (leaseBatch calls it first). A clone is recorded only
// in the spec map — never cs.held, never the queue — so every existing
// invariant over inflight+queue is untouched; the clone either wins the
// claim race (claimLocked) or evaporates. Stale candidates (resolved,
// reclaimed, or already cloned since flagging) are dropped; candidates
// this participant cannot take (its own straggling lease) are kept for
// other requesters. Callers hold lease.mu. Returns the number of clones
// issued.
func (s *Supervisor) fillSpeculativeLocked(pid int, cs *connState, want int, items *[]WorkItem) int {
	if len(s.lease.specq) == 0 {
		return 0
	}
	issued := 0
	kept := s.lease.specq[:0]
	for _, key := range s.lease.specq {
		if len(*items) >= want {
			kept = append(kept, key)
			continue
		}
		info, ok := s.lease.inflight[key]
		if !ok || !info.speculated {
			continue
		}
		if _, dup := s.lease.spec[key]; dup {
			continue
		}
		if info.participant == pid {
			kept = append(kept, key)
			continue
		}
		now := time.Now()
		s.lease.spec[key] = inflightInfo{participant: pid, a: info.a, issuedAt: now, owner: cs}
		issued++
		if s.events != nil {
			s.events.Emit(EvAssignmentSpeculated, map[string]any{
				"task": info.a.TaskID, "copy": info.a.Copy,
				"participant": pid, "straggler": info.participant,
			})
		}
		*items = append(*items, WorkItem{TaskID: info.a.TaskID, Copy: info.a.Copy, Seed: TaskSeed(info.a.TaskID)})
	}
	s.lease.specq = kept
	return issued
}

// outstandingKey identifies one issued copy so results can be matched
// back. Keyed by (task, copy).
type outstandingKey struct{ task, copy int }

type inflightInfo struct {
	participant int
	a           sched.Assignment
	issuedAt    time.Time
	owner       *connState // connection the assignment is currently attached to
	// speculated marks a primary that has (or had) a duplicate flagged or
	// issued; at most one clone exists per copy, and a dropped clone
	// clears the flag so the sweeper may try again.
	speculated bool
}

// sweepLoop periodically reclaims assignments held past the deadline,
// flags straggling leases for speculative reissue, and advances the
// health roster's time-driven transitions. With no Deadline configured
// (health-only supervisors) it still ticks at a fixed cadence so
// probation clocks advance.
func (s *Supervisor) sweepLoop() {
	interval := s.cfg.Deadline / 4
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-s.done:
			return
		case <-tick.C:
			s.sweepExpired()
		}
	}
}

func (s *Supervisor) sweepExpired() {
	now := time.Now()
	s.lease.mu.Lock()
	defer s.lease.mu.Unlock()
	swept := 0
	if s.cfg.Deadline > 0 {
		cutoff := now.Add(-s.cfg.Deadline)
		for key, info := range s.lease.inflight {
			if !info.issuedAt.Before(cutoff) {
				continue
			}
			delete(s.lease.inflight, key)
			if info.owner != nil {
				delete(info.owner.held, key)
			}
			if s.roster != nil && s.quarantine {
				// A hard-deadline expiry is the health signal (silent lease
				// holding); disconnect churn deliberately is not.
				if tr := s.roster.ObserveReclaim(info.participant, now); tr != nil {
					s.pushTransition(*tr, false)
				}
			}
			s.metrics.reclaimed.With("deadline").Inc()
			if s.events != nil {
				s.events.Emit(EvAssignmentReclaimed, map[string]any{
					"task": info.a.TaskID, "copy": info.a.Copy,
					"participant": info.participant, "reason": "deadline",
				})
			}
			if twin, ok := s.lease.spec[key]; ok && !twin.issuedAt.Before(cutoff) {
				// The straggling primary expired but its speculative clone is
				// still within deadline: promote the clone to primary. The
				// copy never touches the queue — it stays leased, only the
				// holder changes — so accounting sees no reclaim/reissue.
				delete(s.lease.spec, key)
				twin.speculated = false
				s.lease.inflight[key] = twin
				s.logf("deadline exceeded: task %d copy %d promoted from participant %d to speculative holder %d",
					info.a.TaskID, info.a.Copy, info.participant, twin.participant)
				continue
			}
			if _, ok := s.lease.spec[key]; ok {
				// Both the primary and its clone expired: one queue reclaim,
				// and the duplicate evaporates without queue effect.
				delete(s.lease.spec, key)
				s.metrics.reclaimed.With("speculative").Inc()
			}
			s.lease.queue.Abandon(info.a)
			swept++
			s.logf("deadline exceeded: reclaimed task %d copy %d from participant %d",
				info.a.TaskID, info.a.Copy, info.participant)
		}
		// Expired clones whose primary is still live: drop the duplicate and
		// make the primary eligible for a fresh one.
		for key, twin := range s.lease.spec {
			if !twin.issuedAt.Before(cutoff) {
				continue
			}
			delete(s.lease.spec, key)
			if info, ok := s.lease.inflight[key]; ok {
				info.speculated = false
				s.lease.inflight[key] = info
			}
			if s.roster != nil && s.quarantine {
				if tr := s.roster.ObserveReclaim(twin.participant, now); tr != nil {
					s.pushTransition(*tr, false)
				}
			}
			s.metrics.reclaimed.With("speculative").Inc()
			if s.events != nil {
				s.events.Emit(EvAssignmentReclaimed, map[string]any{
					"task": twin.a.TaskID, "copy": twin.a.Copy,
					"participant": twin.participant, "reason": "speculative",
				})
			}
		}
		// Resolved speculative races older than two deadlines can no longer
		// produce a meaningful "duplicate" rejection; forget them.
		if len(s.lease.specLosers) > 0 {
			gc := now.Add(-2 * s.cfg.Deadline)
			for key, l := range s.lease.specLosers {
				if l.at.Before(gc) {
					delete(s.lease.specLosers, key)
				}
			}
		}
	}
	// Speculative tier: flag still-leased copies whose age exceeds the
	// configured completion-time percentile as candidates for a duplicate
	// issue to a different participant (served by leaseBatch).
	if s.cfg.SpeculatePct > 0 && !s.lease.draining && !s.lease.finished {
		if q, ok := s.roster.Quantile(s.cfg.SpeculatePct); ok {
			specCutoff := now.Add(-q)
			flagged := 0
			for key, info := range s.lease.inflight {
				if info.speculated || !info.issuedAt.Before(specCutoff) {
					continue
				}
				info.speculated = true
				s.lease.inflight[key] = info
				s.lease.specq = append(s.lease.specq, key)
				flagged++
			}
			if flagged > 0 {
				swept++ // parked leases can serve the new candidates
			}
		}
	}
	if s.roster != nil {
		if s.quarantine {
			for _, tr := range s.roster.Tick(now) {
				s.pushTransition(tr, false)
			}
		}
		s.drainHealthLocked()
		for _, ph := range s.roster.Snapshot() {
			s.metrics.participantHealth.With(strconv.Itoa(ph.Participant)).Set(ph.Score)
		}
	}
	if swept > 0 {
		s.kickLeaseLocked()
	}
}

// pushTransition reacts to one health-state transition: metrics, events,
// the adaptive estimator (quarantine is cheat/stall evidence the planner
// should see), and — for quarantine entries — parking the lease-level
// reclaim on qpend until a lease.mu holder drains it. underAudit says
// whether the caller already holds audit.mu (the verdict callback does;
// the sweeper holds lease.mu instead, and lease.mu → audit.mu is the
// legal nesting order). During journal replay the roster still moves but
// every side effect is suppressed: counters describe live observations,
// and a restored supervisor has no outstanding leases to reclaim.
func (s *Supervisor) pushTransition(tr health.Transition, underAudit bool) {
	if s.replaying {
		return
	}
	switch tr.To {
	case health.Quarantined:
		s.metrics.quarantinesEntered.Inc()
		if s.audit.est != nil {
			if underAudit {
				s.audit.est.Observe(1, 1)
			} else {
				s.audit.mu.Lock()
				s.audit.est.Observe(1, 1)
				s.audit.mu.Unlock()
			}
		}
		s.qmu.Lock()
		s.qpend = append(s.qpend, tr)
		s.qmu.Unlock()
		if s.events != nil {
			s.events.Emit(EvParticipantQuarantined, map[string]any{
				"participant": tr.Participant, "reason": tr.Reason, "from": tr.From.String(),
			})
		}
	case health.Probation:
		if s.events != nil {
			s.events.Emit(EvParticipantProbation, map[string]any{
				"participant": tr.Participant,
			})
		}
	case health.Healthy:
		s.metrics.quarantinesExited.Inc()
		if s.events != nil {
			// reason distinguishes a ringer-proven re-admission
			// ("readmitted") from the ringer-starved clock fallback
			// ("probation_expired").
			s.events.Emit(EvParticipantReadmitted, map[string]any{
				"participant": tr.Participant, "reason": tr.Reason,
			})
		}
	}
	s.metrics.participantHealth.With(strconv.Itoa(tr.Participant)).Set(s.roster.Score(tr.Participant))
	s.logf("participant %d: %s -> %s (%s)", tr.Participant, tr.From, tr.To, tr.Reason)
}

// drainHealthLocked applies the lease-level consequence of pending
// quarantine transitions: every outstanding lease (and speculative
// duplicate) of a newly quarantined participant is reclaimed. Callers
// hold lease.mu.
func (s *Supervisor) drainHealthLocked() {
	if s.roster == nil {
		return
	}
	s.qmu.Lock()
	pend := s.qpend
	s.qpend = nil
	s.qmu.Unlock()
	for _, tr := range pend {
		if tr.To == health.Quarantined {
			s.reclaimParticipantLocked(tr.Participant)
		}
	}
}

// reclaimParticipantLocked takes back everything one participant holds:
// primaries go back to the queue (or hand off to a live speculative
// clone), duplicates evaporate without queue effect. Callers hold
// lease.mu.
func (s *Supervisor) reclaimParticipantLocked(pid int) {
	reclaimed := 0
	for key, info := range s.lease.inflight {
		if info.participant != pid {
			continue
		}
		delete(s.lease.inflight, key)
		if info.owner != nil {
			delete(info.owner.held, key)
		}
		if twin, ok := s.lease.spec[key]; ok {
			delete(s.lease.spec, key)
			twin.speculated = false
			s.lease.inflight[key] = twin
		} else {
			s.lease.queue.Abandon(info.a)
		}
		reclaimed++
		s.metrics.reclaimed.With("quarantine").Inc()
		if s.events != nil {
			s.events.Emit(EvAssignmentReclaimed, map[string]any{
				"task": info.a.TaskID, "copy": info.a.Copy,
				"participant": pid, "reason": "quarantine",
			})
		}
	}
	for key, twin := range s.lease.spec {
		if twin.participant != pid {
			continue
		}
		delete(s.lease.spec, key)
		if info, ok := s.lease.inflight[key]; ok {
			info.speculated = false
			s.lease.inflight[key] = info
		}
		reclaimed++
		s.metrics.reclaimed.With("quarantine").Inc()
		if s.events != nil {
			s.events.Emit(EvAssignmentReclaimed, map[string]any{
				"task": twin.a.TaskID, "copy": twin.a.Copy,
				"participant": pid, "reason": "quarantine",
			})
		}
	}
	if reclaimed > 0 {
		s.logf("quarantine: reclaimed %d outstanding lease(s) from participant %d", reclaimed, pid)
		s.kickLeaseLocked()
	}
}

// applyRevisionLocked applies one plan revision to the supervisor's live
// state — plan, queue, and verification expectations — in that order. It
// does NOT journal; the caller either just wrote the record (live tick) or
// is replaying one (restore). Callers hold lease.mu and audit.mu (or are
// single-threaded construction). Revisions are validated against the plan
// before anything mutates, so a failure leaves state untouched.
func (s *Supervisor) applyRevisionLocked(rev plan.Revision) error {
	if err := s.cfg.Plan.ValidateRevision(rev); err != nil {
		return err
	}
	// Cross-check against the queue before mutating anything: every
	// promotion must name a never-issued task with exactly From copies
	// still queued. The controller only proposes such tasks; this guards
	// replay against a journal that disagrees with the queue.
	for _, pr := range rev.Promotions {
		if s.lease.queue.EverIssued(pr.TaskID) {
			return fmt.Errorf("platform: revision promotes issued task %d", pr.TaskID)
		}
	}
	if err := s.cfg.Plan.ApplyRevision(rev); err != nil {
		return err
	}
	for _, pr := range rev.Promotions {
		if err := s.lease.queue.Promote(pr.TaskID, pr.From, pr.To); err != nil {
			return fmt.Errorf("platform: revision %d: %w", s.audit.revApplied, err)
		}
		s.audit.collector.Expect(pr.TaskID, pr.To)
	}
	for _, m := range rev.Minted {
		if err := s.lease.queue.AddTask(plan.TaskSpec{ID: m.TaskID, Copies: m.Copies, Ringer: true}); err != nil {
			return fmt.Errorf("platform: revision %d: %w", s.audit.revApplied, err)
		}
		s.audit.collector.Expect(m.TaskID, m.Copies)
	}
	s.audit.revApplied++
	return nil
}

// adaptLoop periodically evaluates the adaptive controller.
func (s *Supervisor) adaptLoop() {
	tick := time.NewTicker(s.adaptCfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-s.done:
			return
		case <-tick.C:
			s.adaptTick()
		}
	}
}

// adaptTick is one evaluation of the control loop: refresh the p̂ gauges,
// and if the interval's upper bound leaves any active class below the
// target ε, journal and apply a revision. Journal-first ordering makes the
// crash cases safe: a torn revision line is dropped on restore and no
// later record can depend on it (revised copies are only issued after the
// apply), while a fully written line replays exactly. This is the one
// steady-state site that nests locks (lease.mu → audit.mu): a revision
// must re-shape the queue and the verification expectations atomically.
func (s *Supervisor) adaptTick() {
	s.lease.mu.Lock()
	defer s.lease.mu.Unlock()
	s.audit.mu.Lock()
	defer s.audit.mu.Unlock()
	est := s.audit.est.Estimate()
	s.metrics.adaptPHat.Set(est.PHat)
	s.metrics.adaptIntervalWidth.Set(est.Width())
	if est.Samples < float64(s.adaptCfg.MinSamples) || s.lease.finished || s.lease.draining {
		return
	}
	specs := s.cfg.Plan.Tasks()
	tasks := make([]adapt.TaskState, 0, len(specs))
	for _, sp := range specs {
		tasks = append(tasks, adapt.TaskState{
			ID: sp.ID, Copies: sp.Copies, Ringer: sp.Ringer,
			Eligible: !sp.Ringer && !s.lease.queue.EverIssued(sp.ID),
		})
	}
	rev, ok := adapt.Replan(tasks, s.cfg.Plan.NextTaskID(), s.adaptCfg.TargetEpsilon, est.Upper)
	if rev.Empty() {
		if !ok {
			s.logf("adapt: ε=%g unreachable at p̂ upper bound %.4f (safety cap)",
				s.adaptCfg.TargetEpsilon, est.Upper)
		}
		return
	}
	rec := revisionRecord{
		Seq: s.audit.revApplied, PHat: est.PHat, Upper: est.Upper,
		Promotions: rev.Promotions, Minted: rev.Minted,
	}
	if s.cfg.Journal != nil {
		if err := s.appendRevision(rec); err != nil {
			s.logf("adapt: journal write failed, revision deferred: %v", err)
			return
		}
	}
	seq := s.audit.revApplied
	if err := s.applyRevisionLocked(rev); err != nil {
		// Pre-validated, so this is a genuine bug; surface loudly but keep
		// serving — the journal record will replay (and fail) identically.
		s.logf("adapt: BUG: journaled revision failed to apply: %v", err)
		return
	}
	s.audit.revisions = append(s.audit.revisions, rec) // retained for snapshots
	s.kickLeaseLocked()                                // the revision queued new copies
	promoted, minted := 0, 0
	for _, pr := range rev.Promotions {
		promoted += pr.To - pr.From
	}
	for _, m := range rev.Minted {
		minted += m.Copies
	}
	s.metrics.adaptRevisions.Inc()
	s.metrics.adaptPromoted.Add(uint64(promoted))
	s.metrics.adaptMinted.Add(uint64(len(rev.Minted)))
	if s.events != nil {
		s.events.Emit(EvPlanRevised, map[string]any{
			"seq": seq, "phat": est.PHat, "upper": est.Upper,
			"promotions": len(rev.Promotions), "promoted_copies": promoted,
			"minted": len(rev.Minted), "minted_copies": minted, "satisfied": ok,
		})
	}
	s.logf("adapt: revision %d applied (p̂=%.4f upper=%.4f): %d promotion(s), %d minted ringer(s), %d new assignments",
		seq, est.PHat, est.Upper, len(rev.Promotions), len(rev.Minted), rev.CopiesAdded())
}

// appendRevision writes one revision record under jnlMu, syncing inline
// when JournalSync is on. Revisions bypass the group committer on purpose:
// the caller holds lease.mu, so the record hits the file before any
// revised copy can be issued — and therefore before any result depending
// on it can reach the committer — preserving journal-first ordering in
// both journal modes (the committer's writes take jnlMu too, so interior
// interleaving is impossible).
func (s *Supervisor) appendRevision(rec revisionRecord) error {
	s.jnlMu.Lock()
	err := appendJournalRevision(s.cfg.Journal, rec)
	if err == nil {
		s.jnlLines++
	}
	s.jnlMu.Unlock()
	if err != nil {
		return err
	}
	if s.cfg.JournalSync {
		s.syncJournal()
	}
	// Count toward the snapshot trigger but never fire it here: the caller
	// holds lease.mu, which takeSnapshot must acquire. The next
	// result-driven noteJournaled sweeps the revision up.
	s.jnlSince.Add(1)
	return nil
}

// AdaptiveEstimate returns the current p̂ estimate and true when the
// adaptive control plane is enabled.
func (s *Supervisor) AdaptiveEstimate() (adapt.Estimate, bool) {
	if s.audit.est == nil {
		return adapt.Estimate{}, false
	}
	s.audit.mu.Lock()
	defer s.audit.mu.Unlock()
	return s.audit.est.Estimate(), true
}

// HealthSnapshot returns the health roster's per-participant view (state,
// score, counters), or nil when neither Health nor SpeculatePct is
// configured. The roster locks itself, so this is safe from any goroutine.
func (s *Supervisor) HealthSnapshot() []health.ParticipantHealth {
	if s.roster == nil {
		return nil
	}
	return s.roster.Snapshot()
}

// CompletionQuantile reports the q-th quantile of the health subsystem's
// global completion-latency window — the observable the speculative tier
// triggers on. It returns false until enough completions have accumulated,
// or when neither Health nor SpeculatePct is configured.
func (s *Supervisor) CompletionQuantile(q float64) (time.Duration, bool) {
	if s.roster == nil {
		return 0, false
	}
	return s.roster.Quantile(q)
}

// RevisionsApplied reports how many plan revisions this supervisor has
// applied, including revisions restored from the journal.
func (s *Supervisor) RevisionsApplied() int {
	s.audit.mu.Lock()
	defer s.audit.mu.Unlock()
	return s.audit.revApplied
}

// pendingResult carries one claimed result between resultBatch's phases.
type pendingResult struct {
	idx    int // index of this result's ack in the reply
	info   inflightInfo
	value  uint64
	failed bool // verification refused it in phase B
}

// resultBatch serves one participant's results in three phases so no
// phase holds more than one lock and each critical section is the minimal
// mutation:
//
//	A (lease.mu)  claim — validate ownership and delete the in-flight
//	              entries, so no other connection, sweep, or duplicate
//	              submission can race on these copies;
//	B (audit.mu)  adjudicate — feed each claimed result through the
//	              verification pipeline and build its journal record;
//	C (lease.mu)  complete — mark the queue, emit the accepted events
//	              (under the lease lock, preserving the event-stream
//	              serialization the chaos test replays), and wake parked
//	              leases if copies were released or the run finished.
//
// Between A and C the copies are in no map and not in the queue's ready
// pool, so nothing can issue, reclaim, or double-accept them. Journal
// records are queued with the committer at the end of B, still under
// audit.mu, so journal order is adjudication order across connections;
// the committer's window covers them with one buffered write and, with
// JournalSync, one fsync amortized over every submission queued meanwhile.
//
// The handler never waits for that commit. A submission that journaled
// something returns deferred: its acks and records stay in the ring slot
// they were built in, serve sends no reply and goes on to the next request,
// and the ack is encoded and written only after the window is down
// (queueDurableLocked), so an acked result survives a crash. A submission
// that journaled nothing (no journal, or every item refused) is answered
// inline, after the acks of the submissions ahead of it: deferred replies
// are only ever ack and batch_ack, and acks stay in submission order. The
// clock is read once per submission. The returned acks alias the slot and
// are valid until the next call.
func (s *Supervisor) resultBatch(pid int, results []ResultItem, single bool, cs *connState) (acks []ResultAck, deferred bool) {
	now := time.Now()
	// Free by the run-ahead bound: beforeRecv let this request in with at
	// most maxDeferredAcks-1 slots taken.
	d := &cs.deferred[cs.dtail%maxDeferredAcks]
	acks = d.acks[:0]
	recs := d.recs[:0]
	pend := cs.pend[:0]
	s.lease.mu.Lock()
	for _, r := range results {
		info, reason, detail := s.claimLocked(pid, r.TaskID, r.Copy, cs, now)
		ack := ResultAck{TaskID: r.TaskID, Copy: r.Copy, OK: reason == ""}
		if reason != "" {
			ack.Reason = reason
			ack.Error = detail
		} else {
			pend = append(pend, pendingResult{idx: len(acks), info: info, value: r.Value})
		}
		acks = append(acks, ack)
	}
	s.lease.mu.Unlock()
	if len(pend) > 0 {
		s.audit.mu.Lock()
		for i := range pend {
			p := &pend[i]
			// Credits and the adaptive estimator update inside the
			// collector's verdict callback.
			v, adjudicated, err := s.audit.collector.Submit(verify.Result{
				Assignment:  p.info.a,
				Participant: p.info.participant,
				Value:       p.value,
			})
			if err != nil {
				p.failed = true
				acks[p.idx].OK = false
				acks[p.idx].Reason = ReasonVerification
				acks[p.idx].Error = err.Error()
				continue
			}
			if adjudicated && v.MismatchDetected {
				s.logf("CHEAT DETECTED on task %d (suspects %v)", v.TaskID, v.Suspects)
				if s.cfg.ResolveMismatches && !v.Ringer {
					// Reactive measure: the supervisor recomputes the
					// disputed task on trusted hardware.
					s.audit.resolved[v.TaskID] = s.work(TaskSeed(v.TaskID), s.cfg.Iters)
					s.logf("task %d resolved by supervisor recomputation", v.TaskID)
				}
			}
			if s.committer != nil {
				recs = append(recs, journalRecord{
					TaskID:      p.info.a.TaskID,
					Copy:        p.info.a.Copy,
					Ringer:      p.info.a.Ringer,
					Participant: pid,
					Value:       p.value,
				})
			}
		}
		if len(recs) > 0 {
			if d.seq, deferred = s.committer.enqueue(recs, now); !deferred {
				s.logf("journal write failed: committer closed")
			}
		}
		s.audit.mu.Unlock()
		accepted := 0
		s.lease.mu.Lock()
		for i := range pend {
			p := &pend[i]
			if p.failed {
				continue
			}
			s.lease.queue.Complete(p.info.a)
			accepted++
			if s.events != nil {
				s.events.Emit(EvResultAccepted, map[string]any{
					"task": p.info.a.TaskID, "copy": p.info.a.Copy, "participant": pid,
				})
			}
		}
		// The last completion finishes the run; any completion may have
		// released held-back copies worth waking parked leases for.
		if s.lease.queue.Done() && !s.lease.finished {
			s.lease.finished = true
			close(s.done)
			s.kickLeaseLocked()
		} else if len(s.lease.waiters) > 0 && s.lease.queue.Available() {
			s.kickLeaseLocked()
		}
		s.lease.mu.Unlock()
		if accepted > 0 {
			s.metrics.resultsAccepted.Add(uint64(accepted))
			if s.metrics.shardAccepted != nil {
				s.metrics.shardAccepted.Add(uint64(accepted))
			}
			tn := s.metrics.turnaround.With(cs.names[pid])
			for i := range pend {
				if pend[i].failed {
					continue
				}
				took := now.Sub(pend[i].info.issuedAt)
				tn.Observe(took.Seconds())
				if s.roster != nil {
					s.roster.ObserveCompletion(pid, took)
				}
			}
		}
	}
	for _, ack := range acks {
		if ack.OK {
			continue
		}
		s.metrics.resultsRejected.With(ack.Reason).Inc()
		if s.events != nil {
			s.events.Emit(EvResultRejected, map[string]any{
				"task": ack.TaskID, "copy": ack.Copy, "participant": pid, "reason": ack.Reason,
			})
		}
	}
	d.acks, d.recs, d.single = acks, recs, single
	cs.pend = pend
	switch {
	case deferred:
		s.deferAck(cs)
	case s.committer != nil:
		// Inline, but in order: this reply may not overtake the acks of the
		// submissions ahead of it.
		cs.wmu.Lock()
		s.awaitDeferredLocked(cs, 0)
		cs.wmu.Unlock()
	}
	return acks, deferred
}

// claimLocked validates ownership of one submitted result and removes its
// in-flight entry, transferring the copy into the caller's exclusive
// hands: after it returns success, no sweep, disconnect, resume, or
// duplicate submission can touch this (task, copy). On refusal it returns
// the rejection reason and detail and changes nothing (beyond loser
// bookkeeping for speculative races, stamped with the caller's one clock
// reading now). Callers hold lease.mu.
//
// With speculative reissue a copy may be out twice — the primary in
// inflight and a clone in spec, held by different participants. The first
// of the two to submit wins here: the winner's claim deletes BOTH
// entries, so exactly one result per copy can ever reach adjudication
// (phase B), and the race's loser is remembered so its late submission is
// rejected as a duplicate, not double-credited.
func (s *Supervisor) claimLocked(participant, taskID, copy int, cs *connState, now time.Time) (inflightInfo, string, string) {
	key := outstandingKey{taskID, copy}
	info, ok := s.lease.inflight[key]
	if ok && info.participant == participant {
		delete(s.lease.inflight, key)
		delete(cs.held, key)
		if info.owner != nil && info.owner != cs {
			delete(info.owner.held, key)
		}
		if twin, dup := s.lease.spec[key]; dup {
			// The primary beat its clone: record the loser.
			delete(s.lease.spec, key)
			s.lease.specLosers[key] = specLoser{participant: twin.participant, at: now}
		}
		return info, "", ""
	}
	if twin, dup := s.lease.spec[key]; dup && twin.participant == participant {
		// The clone beat the straggling primary: it wins the claim and the
		// primary becomes the loser. Queue accounting is untouched either
		// way — exactly one Complete will follow for this copy.
		delete(s.lease.spec, key)
		if ok {
			delete(s.lease.inflight, key)
			if info.owner != nil {
				delete(info.owner.held, key)
			}
			s.lease.specLosers[key] = specLoser{participant: info.participant, at: now}
		}
		s.metrics.speculativeWins.Inc()
		return twin, "", ""
	}
	if !ok {
		if l, lost := s.lease.specLosers[key]; lost && l.participant == participant {
			s.metrics.speculativeWasted.Inc()
			return inflightInfo{}, ReasonDuplicate, "copy already completed by the other racer"
		}
		return inflightInfo{}, ReasonUnassigned, "result for unassigned work"
	}
	return inflightInfo{}, ReasonWrongParticipant, "result from wrong participant"
}

// syncer is the optional flushing facet of a journal writer (*os.File
// implements it).
type syncer interface{ Sync() error }

// syncJournal fsyncs the journal if its writer supports it. Safe without
// any lock: appends are ordered under jnlMu, and Sync flushes everything
// written before the call, so a caller syncing after its write still
// covers its own records (*os.File.Sync is goroutine-safe, logf and the
// counter guard themselves).
func (s *Supervisor) syncJournal() {
	sy, ok := s.cfg.Journal.(syncer)
	if !ok {
		return
	}
	if err := sy.Sync(); err != nil {
		s.logf("journal sync failed: %v", err)
		return
	}
	s.metrics.journalSyncs.Inc()
}

// flushJournal ends the journal's write pipeline at teardown: the
// committer (when started) is drained and stopped, then a final fsync
// covers anything still in the page cache.
func (s *Supervisor) flushJournal() {
	if s.committer != nil {
		s.committer.close()
	}
	if s.cfg.Journal != nil {
		s.syncJournal()
	}
}

// Wait blocks until every task has been adjudicated.
func (s *Supervisor) Wait() { <-s.done }

// Shutdown drains the supervisor gracefully: it stops accepting
// connections and issuing assignments, waits (up to ctx) for in-flight
// assignments to land or be reclaimed, then closes every connection and
// flushes the journal. It returns nil if the drain completed, or ctx's
// error if the deadline cut it short (state is still consistent — the
// journal has every accepted result).
func (s *Supervisor) Shutdown(ctx context.Context) error {
	s.lease.mu.Lock()
	s.lease.draining = true
	s.kickLeaseLocked() // parked leases must observe the drain
	s.lease.mu.Unlock()
	if s.ln != nil {
		s.ln.Close()
	}
	drained := s.awaitDrain(ctx)
	s.stopOnce.Do(func() { close(s.stop) })
	s.closeConns()
	s.connWG.Wait()
	s.loopWG.Wait()
	s.flushJournal()
	if drained {
		return nil
	}
	return ctx.Err()
}

// awaitDrain polls until no assignment is in flight and no request is
// mid-reply, or ctx expires. The in-flight table is read first: a result
// handler raises busy before its claim empties the table and lowers it
// only once its ack has been flushed, which is after its commit.
func (s *Supervisor) awaitDrain(ctx context.Context) bool {
	for {
		s.lease.mu.Lock()
		n := len(s.lease.inflight)
		s.lease.mu.Unlock()
		if n == 0 && s.busy.Load() == 0 {
			return true
		}
		select {
		case <-ctx.Done():
			return false
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// Close shuts the supervisor down. After the computation finished it
// waits for workers to collect their done replies and leave, as before;
// mid-run it is an abrupt kill — every open connection is closed without
// draining (in-flight work is lost to the journal's mercy, which is the
// point: tests kill a supervisor this way and assert the journal restores
// it). Use Shutdown for a graceful mid-run stop.
func (s *Supervisor) Close() error {
	s.stopOnce.Do(func() { close(s.stop) })
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.lease.mu.Lock()
	finished := s.lease.finished
	s.lease.mu.Unlock()
	if !finished {
		s.closeConns()
	}
	s.connWG.Wait()
	s.loopWG.Wait()
	s.flushJournal()
	return err
}

// Summary is a snapshot of the platform's verification state.
type Summary struct {
	Participants int
	Verify       verify.Stats
	// Blacklist holds every suspect, including participants implicated
	// only circumstantially (a 2-way mismatch suspects both parties).
	Blacklist []int
	// Convicted holds participants caught by conclusive ringer evidence;
	// only these are refused further work.
	Convicted    []int
	WrongResults int // certified values that differ from the true computation
	// Restored counts results recovered from the journal at startup.
	Restored int
	// Resolved counts disputed tasks the supervisor recomputed itself
	// (only with ResolveMismatches enabled).
	Resolved int
	// Credits is the per-participant leaderboard: one credit per
	// contribution to a certified task, zeroed by conviction.
	Credits []CreditEntry
}

// Summary reports current progress; safe to call at any time.
func (s *Supervisor) Summary() Summary {
	s.ident.mu.Lock()
	participants := s.ident.nextID
	s.ident.mu.Unlock()
	s.audit.mu.Lock()
	defer s.audit.mu.Unlock()
	sum := Summary{
		Participants: participants,
		Verify:       s.audit.collector.Stats(),
		Blacklist:    s.audit.collector.Blacklist(),
		Convicted:    s.audit.collector.ConvictedList(),
		Credits:      s.audit.credits.Leaderboard(),
		Resolved:     len(s.audit.resolved),
		Restored:     s.restored,
	}
	var cmp verify.Comparator = verify.Exact{}
	if s.cfg.ResultDigits > 0 {
		cmp = verify.Quantize{Digits: s.cfg.ResultDigits}
	}
	verdicts := s.audit.collector.Verdicts()
	for i := range verdicts {
		v := &verdicts[i]
		truth := s.work(TaskSeed(v.TaskID), s.cfg.Iters)
		if v.Accepted && cmp.Canonical(v.Value) != cmp.Canonical(truth) {
			sum.WrongResults++
		}
	}
	return sum
}

// CertifiedValue returns the final value of a task and whether one exists:
// the redundancy-certified value, or the supervisor's own recomputation for
// resolved disputes.
func (s *Supervisor) CertifiedValue(taskID int) (uint64, bool) {
	s.audit.mu.Lock()
	defer s.audit.mu.Unlock()
	if v, ok := s.audit.resolved[taskID]; ok {
		return v, true
	}
	if v, ok := s.audit.collector.VerdictFor(taskID); ok && v.Accepted {
		return v.Value, true
	}
	return 0, false
}
