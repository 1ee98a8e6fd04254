package platform

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"redundancy/internal/agg"
	"redundancy/internal/obs"
	"redundancy/internal/plan"
	"redundancy/internal/ring"
)

// ClusterConfig is the config NewCluster takes: a SupervisorConfig whose
// Shards and JournalDir say how to partition and journal the plan (see
// SupervisorConfig.Shards and DESIGN.md §14).
type ClusterConfig = SupervisorConfig

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
// run-wide estimate the paper's ε guarantee is stated over. Its methods are
// safe for concurrent use: ShardMap is a sharded worker's lookup.
type Cluster struct {
	cfg     SupervisorConfig // Metrics always set: the shards share it
	ring    *ring.Ring
	metrics *clusterMetrics
	// parts[i] is the global-ID task subset shard i owns.
	parts [][]plan.TaskSpec

	// mu guards the routing state below. It is never held across a
	// supervisor's Start, Wait or Close.
	mu    sync.Mutex
	sups  []*Supervisor // nil while the shard is down
	addrs []string
	epoch uint64
}

// ShardName returns the ring member name of shard i.
func ShardName(i int) string { return fmt.Sprintf("shard-%d", i) }

// NewCluster partitions cfg.Plan across cfg.Shards supervisors and starts
// each one on a loopback address. The returned cluster is serving; callers
// route workers with ShardMap and finish with Wait + Close.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	switch {
	case cfg.Plan == nil:
		return nil, errors.New("platform: cluster requires a plan")
	case cfg.Shards < 1:
		return nil, fmt.Errorf("platform: cluster needs >= 1 shard, got %d", cfg.Shards)
	case cfg.Adapt != nil:
		return nil, errors.New("platform: Adapt on a cluster: the shards share one mutable Plan that a shard's revision would re-plan under the others")
	case cfg.Journal != nil || cfg.Restore != nil:
		return nil, errors.New("platform: cluster shards journal under JournalDir, not Journal or Restore")
	}
	names := make([]string, cfg.Shards)
	for i := range names {
		names[i] = ShardName(i)
	}
	r, err := ring.New(ring.Config{Seed: cfg.Seed}, names...)
	if err != nil {
		return nil, err
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	c := &Cluster{
		cfg:     cfg,
		ring:    r,
		metrics: newClusterMetrics(cfg.Metrics),
		parts:   make([][]plan.TaskSpec, cfg.Shards),
		sups:    make([]*Supervisor, cfg.Shards),
		addrs:   make([]string, cfg.Shards),
		epoch:   1,
	}

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
	return filepath.Join(c.cfg.JournalDir, ShardName(i)+".jnl")
}

// startShard constructs, starts and publishes shard i from a copy of the
// cluster's config. restore, when non-nil, is the journal to replay
// (RestoreShard's crash-recovery path); the epoch advances as the restored
// shard is published.
func (c *Cluster) startShard(i int, restore io.Reader) error {
	scfg := c.cfg
	scfg.tasks, scfg.shardID = c.parts[i], ShardName(i)
	scfg.Seed += uint64(i)
	scfg.Restore = restore
	if lg := c.cfg.Logf; lg != nil {
		prefix := "[" + ShardName(i) + "] "
		scfg.Logf = func(format string, args ...any) { lg(prefix+format, args...) }
	}
	if jp := c.journalPath(i); jp != "" {
		jf, err := OpenJournalFile(jp)
		if err != nil {
			return err
		}
		scfg.Journal = jf
	}
	sup, err := newSupervisor(scfg)
	if err != nil {
		if jf, ok := scfg.Journal.(*JournalFile); ok {
			jf.Close()
		}
		return fmt.Errorf("shard %d: %w", i, err)
	}
	// A restored shard must come back at its old address — workers hold the
	// map by address, and the whole point of restore is that routing state
	// stays valid. The OS may briefly hold the port in TIME_WAIT after the
	// old listener closed, so retry the bind.
	addr := c.Addr(i)
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
			closeShard(sup)
			return fmt.Errorf("shard %d: rebinding %s: %w", i, addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addrs[i], c.sups[i] = bound, sup
	sup.setEpoch(c.epoch)
	if restore != nil {
		c.bumpEpochLocked()
	}
	return nil
}

// closeShard stops a shard's supervisor, then closes its Journal file.
func closeShard(sup *Supervisor) error {
	err := sup.Close()
	if jf, ok := sup.cfg.Journal.(*JournalFile); ok {
		jf.Close()
	}
	return err
}

// bumpEpochLocked advances the shard map epoch and pushes it to every live
// shard, so the next reply each shard sends tells its workers to
// re-resolve. Callers hold mu.
func (c *Cluster) bumpEpochLocked() {
	c.epoch++
	c.metrics.ringRebalances.Inc()
	for _, s := range c.sups {
		if s != nil {
			s.setEpoch(c.epoch)
		}
	}
}

// ShardMap returns the current routing table.
func (c *Cluster) ShardMap() ShardMap {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := ShardMap{Epoch: c.epoch, VNodes: c.ring.VNodes(), Seed: c.ring.Seed()}
	for i, s := range c.sups {
		m.Shards = append(m.Shards, ShardInfo{
			ID: i, Name: ShardName(i), Addr: c.addrs[i], Down: s == nil,
		})
	}
	return m
}

// Supervisor returns shard i's supervisor (nil while the shard is down).
func (c *Cluster) Supervisor(i int) *Supervisor {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sups[i]
}

// Addr returns shard i's listen address (stable across kill/restore).
func (c *Cluster) Addr(i int) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addrs[i]
}

// KillShard crash-stops shard i: its listener and connections drop, its
// journal file handle closes (as a crash would), and the shard map epoch
// bumps so surviving shards tell workers to re-resolve. The shard's tasks
// wait — unserved, never migrated — until RestoreShard replays the journal.
func (c *Cluster) KillShard(i int) error {
	sup := c.Supervisor(i)
	if sup == nil {
		return fmt.Errorf("platform: shard %d is not running", i)
	}
	err := closeShard(sup)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sups[i] = nil
	c.bumpEpochLocked()
	return err
}

// RestoreShard brings a killed shard back at its old address: the journal
// is read back, replayed through verification (byte-identical restore — a
// torn tail from the crash is tolerated and cut off by the shard's
// construction), and the shard
// resumes serving exactly the work its journal does not already certify.
func (c *Cluster) RestoreShard(i int) error {
	if c.Supervisor(i) != nil {
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
	return c.startShard(i, restore)
}

// Wait blocks until every live shard's task subset is fully certified. A
// shard that is down when Wait begins (or goes down while waiting) is
// skipped; callers restore it and Wait again.
func (c *Cluster) Wait() {
	for i := range c.sups {
		if s := c.Supervisor(i); s != nil {
			s.Wait()
		}
	}
}

// Close shuts every live shard down and closes the journals.
func (c *Cluster) Close() error {
	var first error
	for i := range c.sups {
		c.mu.Lock()
		s := c.sups[i]
		c.sups[i] = nil
		c.mu.Unlock()
		if s != nil {
			if err := closeShard(s); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Export returns every live shard's audit export (see Supervisor.Export).
func (c *Cluster) Export() []agg.ShardExport {
	var out []agg.ShardExport
	for i := range c.sups {
		if s := c.Supervisor(i); s != nil {
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
