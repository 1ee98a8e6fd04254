package platform

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"redundancy/internal/adapt"
	"redundancy/internal/health"
	"redundancy/internal/lease"
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
	// Journal, when non-nil, receives one JSON line per accepted result and
	// per plan revision; a supervisor restarted with the same plan and
	// Restore pointed at the journal resumes without re-running completed
	// work. Every record goes through one committer goroutine that
	// coalesces what arrives during a commit window into one buffered
	// write, and a result is acked only after the window covering its
	// record is down.
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
	// supervisor's certification state after every SnapshotInterval
	// appended records (counted, not timed, so behavior is deterministic
	// under test) and atomically replaces the journal with it: the journal
	// then holds one snapshot line plus the records appended since, keeping
	// its size — and the next restore's cost — O(live state) instead of
	// O(run history). Requires a Journal that supports crash-atomic
	// replacement (*JournalFile). 0 disables snapshots.
	SnapshotInterval int
	// Restore, when non-nil, is replayed at construction (see Journal). It
	// must hold the contents of the journal Journal appends to: when Journal
	// can be cut (it has Truncate(int64) error, as *JournalFile and an
	// append-mode *os.File do), construction truncates it to the prefix that
	// replayed cleanly, so the torn final record a crash left behind is not
	// welded onto the next record and turned into interior corruption.
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
	// Resolutions survive a restore: replay recomputes every disputed
	// task its verdicts name, from a journal or a snapshot alike.
	ResolveMismatches bool
	// Logf, when set, receives progress lines (e.g. log.Printf). The
	// supervisor invokes it from multiple goroutines (connection handlers
	// and the deadline sweeper) but serializes every call under its own
	// mutex and recovers panics, so a nil, non-reentrant, or faulty Logf
	// can never take a run down. A cluster's shards call it through one
	// more mutex that they share, so its calls are serialized across the
	// cluster too. Nil suppresses logging.
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
	// Adapt, when non-nil, turns on the adaptive redundancy control plane
	// (internal/adapt): the supervisor estimates the adversary share p̂
	// from its verification verdicts and, whenever the estimate's upper
	// confidence bound pushes any active class's P_{k,p̂} below
	// Adapt.TargetEpsilon, journals and applies a plan revision that
	// promotes still-queued tasks and mints fresh ringers. Requires the
	// Free policy (revisions re-shape the queue) and mutates Plan in
	// place via plan.ApplyRevision.
	Adapt *adapt.Config
	// Shards, when above 1, is the number of supervisors NewCluster
	// partitions Plan across by consistent-hash lookup on the task ID
	// (DESIGN.md §14); NewSupervisor serves the whole plan itself and
	// refuses it. Shard i is built from a copy of this config that differs
	// only in its task subset, its shard name, Seed+i, its journal and
	// restore reader, and a "[shard-i] " Logf prefix, so every other option
	// reaches every shard. Metrics, Events and WrapListener are shared by
	// the shards (a nil Metrics gives the cluster one private registry).
	// The shards are built and started concurrently, so WrapListener may
	// be called from several goroutines at once.
	Shards int
	// JournalDir, when non-empty, gives every cluster shard a JournalFile at
	// <dir>/shard-<i>.jnl; KillShard/RestoreShard then support crash
	// recovery with byte-identical replay. NewCluster only: a lone
	// supervisor journals to Journal and restores from Restore.
	JournalDir string

	// runs, when non-nil, is a cluster shard's subset of Plan.Runs(), set
	// by NewCluster. The subset keeps global task IDs, so TaskSeed inputs,
	// ringer truth and journal records are the same on any shard; Plan
	// still carries the run-wide ε bookkeeping the aggregator evaluates.
	runs []plan.Run
	// shardID names a cluster shard, set by NewCluster: hot-path counters
	// gain shard_id-labeled series (redundancy_shard_* in
	// OBSERVABILITY.md), the audit export carries the name, and every reply
	// carries the cluster's shard-map epoch.
	shardID string
}

// Supervisor is the trusted coordinator: it owns the assignment queue and
// the verification pipeline and serves workers over TCP. Its lease and audit
// state share one mutex, stateMu, which only lease.go locks; the participant
// directory has its own, which only ident.go locks. DESIGN.md §11 has the
// ownership map.
type Supervisor struct {
	cfg  SupervisorConfig
	work WorkFunc

	// logMu serializes calls into the user-supplied Logf hook; see logf.
	logMu sync.Mutex

	registry *obs.Registry
	metrics  *supMetrics
	events   *obs.Sink

	// stateMu is the state mutex: it guards lease and audit.
	stateMu sync.Mutex
	lease   leaseState
	audit   auditState
	ident   identState

	// adaptCfg is immutable after construction (cfg.Adapt != nil).
	adaptCfg adapt.Config

	// roster is the participant health subsystem (nil when neither Health
	// nor SpeculatePct is configured), guarded by stateMu. Latency
	// tracking runs whenever roster is non-nil; verdict/reclaim evidence and
	// quarantine only when cfg.Health was given.
	roster *health.Roster

	// replayed is what the Restore replay at construction recovered (zero
	// without Restore): the results, the clean prefix length for tail
	// truncation, and the journal's length in records.
	replayed replayStats
	// committer is the journal's only writer; Start launches it when a
	// Journal is configured.
	committer *journalCommitter

	// epoch is the cluster's shard-map epoch (0 when unsharded): stamped
	// on every reply so workers detect rebalances without polling, and
	// bumped only by the cluster via setEpoch.
	epoch atomic.Uint64

	done     chan struct{} // closed when every task is adjudicated
	stop     chan struct{} // closed by Close/Shutdown; halts the loops
	stopOnce sync.Once

	ln     net.Listener
	connWG sync.WaitGroup
	loopWG sync.WaitGroup // the loops every starts

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool // no further connections are admitted
	// busy counts requests between their Recv and the flush that carries
	// their reply (a queued reply is still in user space, and a deferred ack
	// is not even that until its commit is down). A claimed result has
	// already left the lease table, so Shutdown's drain waits for this
	// too before it closes the connections — or the ack of the very result
	// it drained for could die with its connection.
	busy atomic.Int64
}

// DefaultMaxBatch is the lease-size cap applied when
// SupervisorConfig.MaxBatch is zero.
const DefaultMaxBatch = 16

// NewSupervisor validates the configuration and builds the supervisor,
// which serves the whole plan. The sharded fields belong to NewCluster.
func NewSupervisor(cfg SupervisorConfig) (*Supervisor, error) {
	switch {
	case cfg.Shards > 1:
		return nil, fmt.Errorf("platform: Shards=%d needs NewCluster (a supervisor serves the whole plan)", cfg.Shards)
	case cfg.JournalDir != "":
		return nil, errors.New("platform: JournalDir needs NewCluster (a supervisor journals to Journal)")
	}
	return newSupervisor(cfg)
}

// newSupervisor builds a supervisor, or one cluster shard when cfg.tasks
// is set.
func newSupervisor(cfg SupervisorConfig) (*Supervisor, error) {
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
	if _, ok := cfg.Journal.(journalReplacer); cfg.SnapshotInterval > 0 && !ok {
		return nil, errors.New("platform: SnapshotInterval requires a Journal supporting atomic replacement (use OpenJournalFile)")
	}
	if cfg.SpeculatePct != 0 {
		if cfg.SpeculatePct < 0 || cfg.SpeculatePct >= 1 {
			return nil, fmt.Errorf("platform: SpeculatePct %v outside (0,1)", cfg.SpeculatePct)
		}
		if cfg.Deadline <= 0 {
			return nil, errors.New("platform: SpeculatePct requires a positive Deadline")
		}
	}
	// Each of these re-shapes the queue in a way the holdback policies
	// cannot express.
	var freeOnly string
	switch {
	case cfg.Health != nil || cfg.SpeculatePct > 0:
		freeOnly = "participant health" // probation serves ringers out of order
	case cfg.Adapt != nil:
		freeOnly = "adaptive re-planning" // revisions promote and mint copies
	}
	if freeOnly != "" && cfg.Policy != sched.Free {
		return nil, fmt.Errorf("platform: %s requires the free policy, have %v", freeOnly, cfg.Policy)
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
	var adaptCfg adapt.Config
	if cfg.Adapt != nil {
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
	s.lease.drained = make(chan struct{}, 1)
	s.lease.conns = make(map[int]*connState)
	s.roster = roster
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
	if cfg.shardID != "" {
		s.metrics.bindShard(cfg.shardID)
	}
	// Every per-task table is filled from the plan's runs; no per-task
	// list is built on the way.
	runs := cfg.runs
	if runs == nil {
		runs = cfg.Plan.Runs()
	}
	s.audit.collector.ExpectAll(runs)
	q, err := sched.NewRunQueue(runs, cfg.Policy, rng.New(cfg.Seed))
	if err != nil {
		return nil, err
	}
	tasks := 0
	if len(runs) > 0 {
		tasks = runs[len(runs)-1].End()
	}
	s.lease.Table = lease.New(q, tasks, s.released)
	if cfg.Adapt != nil {
		s.audit.tasks = adaptTasks(runs)
	}
	if cfg.Restore != nil {
		start := time.Now()
		st, err := replayJournal(cfg.Restore, &supReplayer{s: s, now: start})
		if err == nil {
			err = s.lease.Queue().Settle()
		}
		if err != nil {
			return nil, err
		}
		s.metrics.journalRestoreSeconds.Set(time.Since(start).Seconds())
		s.replayed = st
		if j, ok := cfg.Journal.(interface{ Truncate(int64) error }); ok {
			// Restore read this journal's contents (see Restore): cut the
			// torn tail replay refused, so appends follow the replayed
			// prefix.
			if err := j.Truncate(st.validBytes); err != nil {
				return nil, fmt.Errorf("platform: truncating the journal to its replayed prefix: %w", err)
			}
			if st.validBytes < st.readBytes {
				s.logf("journal: dropped torn tail (%d -> %d bytes)", st.readBytes, st.validBytes)
			}
		}
		s.metrics.journalRestored.Add(uint64(st.restored))
		s.ident.nextID = st.maxParticipant + 1 // never reuse a journaled participant ID
		s.logf("restored %d results from journal (%d assignments remain)",
			st.restored, s.lease.Queue().Total()-s.lease.Queue().Issued())
		if s.lease.Queue().Done() {
			s.lease.finished = true
			close(s.done)
		}
	}
	return s, nil
}

// logf is the single guarded gateway to the user-supplied Logf hook (see
// SupervisorConfig.Logf): a broken Logf loses a log line, never the
// computation.
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

// setEpoch publishes the cluster's shard-map epoch: every subsequent
// reply carries it, telling workers to re-resolve their routing when it
// moves. The cluster bumps it on every shard kill/restore (rebalance);
// unsharded supervisors leave it 0 and the field stays off the wire.
func (s *Supervisor) setEpoch(e uint64) { s.epoch.Store(e) }

// RestoredJournalBytes reports the length of the journal prefix that
// replayed cleanly at construction (0 without Restore): the bytes of every
// record replay accepted, the torn tail it refused excluded. A truncatable
// Journal has already been cut to this length (see Restore).
func (s *Supervisor) RestoredJournalBytes() int64 { return s.replayed.validBytes }

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
		// With no Deadline (health only) the sweep still ticks, at a fixed
		// cadence, so probation clocks advance.
		interval := s.cfg.Deadline / 4
		if interval <= 0 {
			interval = 100 * time.Millisecond
		}
		s.every(interval, func() { s.sweepExpired(time.Now()) })
	}
	if s.audit.est != nil {
		s.every(s.adaptCfg.Interval, s.adaptTick)
	}
	s.logf("supervisor listening on %s (%d assignments, %d tasks)",
		ln.Addr(), s.lease.Queue().Total(), s.cfg.Plan.N+s.cfg.Plan.Ringers)
	return ln.Addr().String(), nil
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
	if s.ln != nil {
		s.ln.Close()
	}
	drained := s.drainLeases(ctx)
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
	select {
	case <-s.done: // finished: workers collect their done replies and leave
	default:
		s.closeConns()
	}
	s.connWG.Wait()
	s.loopWG.Wait()
	s.flushJournal()
	return err
}
