package platform

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"redundancy/internal/agg"
	"redundancy/internal/obs"
	"redundancy/internal/plan"
	"redundancy/internal/ring"
)

// ClusterConfig parameterizes a sharded supervisor cluster: N independent
// supervisor shards, each owning a consistent-hash partition of one global
// plan's task IDs (DESIGN.md §14). Fields shared by every shard mirror their
// SupervisorConfig counterparts.
type ClusterConfig struct {
	// Plan is the global redundancy plan; its task set is partitioned
	// across shards by ring lookup on the task ID. Every shard receives
	// the full Plan (for run-wide ε bookkeeping) plus its own Tasks
	// subset.
	Plan *plan.Plan
	// Shards is the number of supervisor shards (>= 1).
	Shards int
	// VNodes is the virtual nodes per shard on the ring (0 means
	// ring.DefaultVNodes).
	VNodes int
	// Seed seeds both the ring placement and each shard's queue shuffle.
	Seed uint64
	// WorkKind, Iters, MaxBatch, Deadline, IOTimeout: per-shard supervisor
	// settings, identical across shards so a task computes the same value
	// wherever it lands.
	WorkKind  string
	Iters     int
	MaxBatch  int
	Deadline  time.Duration
	IOTimeout time.Duration
	// JournalDir, when non-empty, gives every shard a JournalFile at
	// <dir>/shard-<i>.jnl; KillShard/RestoreShard then support
	// crash-recovery with byte-identical replay. Empty disables journals.
	JournalDir string
	// JournalSync configures each shard's journal exactly as on
	// SupervisorConfig. Per-shard journals are independent commit streams:
	// a cluster of N shards sustains N concurrent commits where a single
	// supervisor serializes them.
	JournalSync bool
	// Metrics, when non-nil, is shared by every shard: registration is
	// idempotent, so the unlabeled supervisor families aggregate
	// cluster-wide while the shard_id-labeled mirrors keep per-shard
	// series. Nil gives the cluster one private registry (still shared
	// by all shards).
	Metrics *obs.Registry
	// Logf receives progress lines from every shard (serialized per
	// shard); nil suppresses logging.
	Logf func(format string, args ...any)
}

// ShardInfo describes one shard of a running cluster to routing clients.
type ShardInfo struct {
	ID   int    // shard index, stable across kill/restore
	Name string // ring member name ("shard-0", ...)
	Addr string // listen address; stable across kill/restore
	Down bool   // true between KillShard and RestoreShard
}

// ShardMap is the routing table a sharded worker consumes: the ring
// parameters to rebuild placement locally plus the live shard endpoints.
// Epoch increments on every membership change (kill or restore); replies
// from shard supervisors carry the epoch so workers detect a stale map.
type ShardMap struct {
	Epoch  uint64
	VNodes int
	Seed   uint64
	Shards []ShardInfo
}

// Cluster runs one supervisor per shard over a consistent-hash partition of
// a single global plan. Each shard owns its queue, leases, audit state,
// identity directory, and journal — no cross-shard lock exists on any hot
// path; the only shared object is the (idempotent, internally synchronized)
// metrics registry. Aggregate merges the per-shard audit exports into the
// run-wide estimate the paper's ε guarantee is stated over.
type Cluster struct {
	cfg     ClusterConfig
	ring    *ring.Ring
	metrics *clusterMetrics
	reg     *obs.Registry
	// parts[i] is the global-ID task subset shard i owns.
	parts [][]plan.TaskSpec

	sups     []*Supervisor
	journals []*JournalFile
	addrs    []string
	down     []bool
	epoch    uint64
}

// ShardName returns the ring member name of shard i.
func ShardName(i int) string { return fmt.Sprintf("shard-%d", i) }

// NewCluster partitions cfg.Plan across cfg.Shards supervisors and starts
// each one on a loopback address. The returned cluster is serving; callers
// route workers with ShardMap and finish with Wait + Close.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Plan == nil {
		return nil, errors.New("platform: cluster requires a plan")
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("platform: cluster needs >= 1 shard, got %d", cfg.Shards)
	}
	names := make([]string, cfg.Shards)
	for i := range names {
		names[i] = ShardName(i)
	}
	r, err := ring.New(ring.Config{VNodes: cfg.VNodes, Seed: cfg.Seed}, names...)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:      cfg,
		ring:     r,
		reg:      cfg.Metrics,
		parts:    make([][]plan.TaskSpec, cfg.Shards),
		sups:     make([]*Supervisor, cfg.Shards),
		journals: make([]*JournalFile, cfg.Shards),
		addrs:    make([]string, cfg.Shards),
		down:     make([]bool, cfg.Shards),
		epoch:    1,
	}
	if c.reg == nil {
		c.reg = obs.NewRegistry()
	}
	c.metrics = newClusterMetrics(c.reg)

	// Static partition: tasks stay where the ring puts them. Membership
	// changes (kill/restore) bump the epoch for routing but never migrate
	// a task between shards — the shard's journal is the authority for its
	// subset, and moving a task would fork that authority.
	//
	// The plan is expanded once and walked twice: count each shard's tasks,
	// then fill parts allocated at exactly that size. shardOf turns the
	// ring's member index into the shard ordinal (Members() is sorted by
	// name, where "shard-10" comes before "shard-2").
	shardOf := make([]int, r.Len())
	for i, n := range names {
		shardOf[sort.SearchStrings(r.Members(), n)] = i
	}
	specs := cfg.Plan.Tasks()
	owner := make([]int32, len(specs))
	counts := make([]int, cfg.Shards)
	for t := range specs {
		mi, ok := r.LookupIndexUint64(uint64(specs[t].ID))
		if !ok {
			return nil, errors.New("platform: ring lookup failed on non-empty ring")
		}
		owner[t] = int32(shardOf[mi])
		counts[owner[t]]++
	}
	for i, n := range counts {
		if n == 0 {
			return nil, fmt.Errorf(
				"platform: shard %d owns no tasks (%d tasks over %d shards); use fewer shards, more tasks, or more vnodes",
				i, len(specs), cfg.Shards)
		}
		c.parts[i] = make([]plan.TaskSpec, 0, n)
	}
	for t, i := range owner {
		c.parts[i] = append(c.parts[i], specs[t])
	}

	for i := range c.sups {
		if err := c.startShard(i, nil); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// journalPath returns shard i's journal path, or "" when journaling is off.
func (c *Cluster) journalPath(i int) string {
	if c.cfg.JournalDir == "" {
		return ""
	}
	return filepath.Join(c.cfg.JournalDir, fmt.Sprintf("shard-%d.jnl", i))
}

// startShard constructs and starts shard i. restore, when non-nil, is the
// journal prefix to replay (RestoreShard's crash-recovery path); the shard
// then truncates its journal to the replayed prefix before serving.
func (c *Cluster) startShard(i int, restore io.Reader) error {
	scfg := SupervisorConfig{
		Plan:        c.cfg.Plan,
		Tasks:       c.parts[i],
		ShardID:     ShardName(i),
		WorkKind:    c.cfg.WorkKind,
		Iters:       c.cfg.Iters,
		Seed:        c.cfg.Seed + uint64(i),
		MaxBatch:    c.cfg.MaxBatch,
		Deadline:    c.cfg.Deadline,
		IOTimeout:   c.cfg.IOTimeout,
		JournalSync: c.cfg.JournalSync,
		Metrics:     c.reg,
		Restore:     restore,
	}
	if c.cfg.Logf != nil {
		lg, shard := c.cfg.Logf, ShardName(i)
		scfg.Logf = func(format string, args ...any) {
			lg("["+shard+"] "+format, args...)
		}
	}
	if jp := c.journalPath(i); jp != "" {
		jf, err := OpenJournalFile(jp)
		if err != nil {
			return err
		}
		scfg.Journal = jf
		c.journals[i] = jf
	}
	sup, err := NewSupervisor(scfg)
	if err != nil {
		if c.journals[i] != nil {
			c.journals[i].Close()
			c.journals[i] = nil
		}
		return fmt.Errorf("shard %d: %w", i, err)
	}
	if restore != nil && c.journals[i] != nil {
		// Crash-recovery contract: drop the torn tail replay refused, then
		// append after the replayed prefix.
		if err := c.journals[i].Truncate(sup.RestoredJournalBytes()); err != nil {
			return fmt.Errorf("shard %d: truncating journal: %w", i, err)
		}
	}
	sup.SetEpoch(c.epoch)

	// A restored shard must come back at its old address — workers hold the
	// map by address, and the whole point of restore is that routing state
	// stays valid. The OS may briefly hold the port in TIME_WAIT after the
	// old listener closed, so retry the bind.
	addr := c.addrs[i]
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var bound string
	for attempt := 0; ; attempt++ {
		bound, err = sup.Start(addr)
		if err == nil {
			break
		}
		if attempt >= 100 {
			sup.Close()
			return fmt.Errorf("shard %d: rebinding %s: %w", i, addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	c.addrs[i] = bound
	c.sups[i] = sup
	c.down[i] = false
	return nil
}

// bumpEpoch advances the shard map epoch and pushes it to every live shard,
// so the next reply each shard sends tells its workers to re-resolve.
func (c *Cluster) bumpEpoch() {
	c.epoch++
	c.metrics.ringRebalances.Inc()
	for i, s := range c.sups {
		if s != nil && !c.down[i] {
			s.SetEpoch(c.epoch)
		}
	}
}

// ShardMap returns the current routing table.
func (c *Cluster) ShardMap() ShardMap {
	m := ShardMap{Epoch: c.epoch, VNodes: c.ring.VNodes(), Seed: c.ring.Seed()}
	for i := range c.sups {
		m.Shards = append(m.Shards, ShardInfo{
			ID: i, Name: ShardName(i), Addr: c.addrs[i], Down: c.down[i],
		})
	}
	return m
}

// Supervisor returns shard i's supervisor (nil while the shard is down).
func (c *Cluster) Supervisor(i int) *Supervisor { return c.sups[i] }

// Addr returns shard i's listen address (stable across kill/restore).
func (c *Cluster) Addr(i int) string { return c.addrs[i] }

// Epoch returns the current shard-map epoch.
func (c *Cluster) Epoch() uint64 { return c.epoch }

// KillShard crash-stops shard i: its listener and connections drop, its
// journal file handle closes (as a crash would), and the shard map epoch
// bumps so surviving shards tell workers to re-resolve. The shard's tasks
// wait — unserved, never migrated — until RestoreShard replays the journal.
func (c *Cluster) KillShard(i int) error {
	if c.sups[i] == nil || c.down[i] {
		return fmt.Errorf("platform: shard %d is not running", i)
	}
	err := c.sups[i].Close()
	if c.journals[i] != nil {
		c.journals[i].Close()
		c.journals[i] = nil
	}
	c.sups[i] = nil
	c.down[i] = true
	c.bumpEpoch()
	return err
}

// RestoreShard brings a killed shard back at its old address: the journal
// is read back, replayed through verification (byte-identical restore — a
// torn tail from the crash is tolerated and truncated), and the shard
// resumes serving exactly the work its journal does not already certify.
func (c *Cluster) RestoreShard(i int) error {
	if !c.down[i] {
		return fmt.Errorf("platform: shard %d is not down", i)
	}
	var restore io.Reader = bytes.NewReader(nil)
	if jp := c.journalPath(i); jp != "" {
		data, err := os.ReadFile(jp)
		if err != nil {
			return fmt.Errorf("shard %d: reading journal: %w", i, err)
		}
		restore = bytes.NewReader(data)
	}
	if err := c.startShard(i, restore); err != nil {
		return err
	}
	c.bumpEpoch()
	return nil
}

// Wait blocks until every live shard's task subset is fully certified. A
// shard that is down when Wait begins (or goes down while waiting) is
// skipped; callers restore it and Wait again.
func (c *Cluster) Wait() {
	for i, s := range c.sups {
		if s != nil && !c.down[i] {
			s.Wait()
		}
	}
}

// Close shuts every live shard down and closes the journals.
func (c *Cluster) Close() error {
	var first error
	for i, s := range c.sups {
		if s != nil && !c.down[i] {
			if err := s.Close(); err != nil && first == nil {
				first = err
			}
			c.sups[i] = nil
		}
		if c.journals[i] != nil {
			c.journals[i].Close()
			c.journals[i] = nil
		}
	}
	return first
}

// Export returns every live shard's audit export (see Supervisor.Export).
func (c *Cluster) Export() []agg.ShardExport {
	var out []agg.ShardExport
	for i, s := range c.sups {
		if s != nil && !c.down[i] {
			out = append(out, s.Export())
		}
	}
	return out
}

// Aggregate exports every live shard and merges the exports into the
// run-wide view: summed verdict counts, the global Wilson interval over
// all adjudicated copies, merged credits, and the per-shard assignment
// imbalance. The merge is timed into redundancy_aggregator_merge_seconds.
func (c *Cluster) Aggregate() agg.Merged {
	start := time.Now()
	m := agg.Merge(c.Export(), 0)
	c.metrics.aggregateMerge.Observe(time.Since(start).Seconds())
	return m
}

// Export snapshots this supervisor's audit state in the form the cluster
// aggregator merges: plain sums over the verdict stream plus the credit
// ledger keyed by participant name (IDs are shard-local; names are the
// cross-shard identity).
func (s *Supervisor) Export() agg.ShardExport {
	ex := agg.ShardExport{Shard: s.cfg.ShardID, Credits: map[string]int{}}
	type credit struct {
		participant int
		credit      int
	}
	var credits []credit
	s.audit.mu.Lock()
	st := s.audit.collector.Stats()
	ex.Tasks, ex.Accepted = st.Tasks, st.Accepted
	ex.Mismatches, ex.RingersCaught = st.MismatchDetected, st.RingersCaught
	verdicts := s.audit.collector.Verdicts()
	for i := range verdicts {
		ex.Assignments += verdicts[i].Copies
		ex.Bad += len(verdicts[i].Suspects)
	}
	for _, e := range s.audit.credits.Leaderboard() {
		credits = append(credits, credit{e.Participant, e.Credit})
	}
	s.audit.mu.Unlock()
	s.ident.mu.Lock()
	for _, cr := range credits {
		name := s.ident.names[cr.participant]
		if name == "" {
			name = fmt.Sprintf("participant-%d", cr.participant)
		}
		ex.Credits[name] += cr.credit
	}
	s.ident.mu.Unlock()
	return ex
}
