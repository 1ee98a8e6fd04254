package platform

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
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
// parameters to rebuild placement locally plus the shard endpoints. Shards
// is indexed by ID; only Down and Epoch change between lookups. Epoch is 0
// until the first membership change and increments on every kill or
// restore; replies from shard supervisors carry it (a 0 is omitted, as a
// lone supervisor omits it) so workers detect a stale map. A worker blocks
// on a map from Cluster.ShardMap until it goes stale (RunShardedWorker); a
// map taken after Cluster.Close, or built by hand, can never change.
type ShardMap struct {
	Epoch   uint64
	VNodes  int
	Seed    uint64
	Shards  []ShardInfo
	changed <-chan struct{} // closed at the next kill, restore or Close; nil: never
}

// Cluster runs one supervisor per shard over a consistent-hash partition of
// a single global plan. Each shard owns its queue, leases, audit state,
// identity directory, and journal — no cross-shard lock exists on any hot
// path; the only shared object is the (idempotent, internally synchronized)
// metrics registry. Aggregate merges the per-shard audit exports into the
// run-wide estimate the paper's ε guarantee is stated over. A cluster that
// is never killed or restored is its supervisors: its epoch stays 0, so a
// shard's replies are byte-identical to a lone supervisor's. Its methods are
// safe for concurrent use: ShardMap is a sharded worker's lookup.
type Cluster struct {
	cfg     SupervisorConfig // Metrics always set: the shards share it
	ring    *ring.Ring
	metrics *clusterMetrics
	// parts[i] is shard i's tasks as runs over its local IDs, and ids[i]
	// maps those to the plan's global IDs and back.
	parts [][]plan.Run
	ids   []*idMap

	// life serializes KillShard, RestoreShard and Close, each for its
	// whole body, so a shard changes state by one of them at a time. It is
	// taken before mu and never by a lookup or a hot path.
	life sync.Mutex
	// mu guards the routing state below. It is never held across a
	// supervisor's Start, Wait or Close.
	mu      sync.Mutex
	sups    []*Supervisor // nil while the shard is down
	addrs   []string
	epoch   uint64
	changed chan struct{} // closed and replaced at each epoch bump; nil once closed
}

// idMap is the one translation between a cluster shard's dense local task
// IDs, which its tables are indexed by, and the plan's global IDs, which
// every edge of a supervisor speaks (DESIGN.md §14). The nil map, a lone
// supervisor's, is the identity.
type idMap struct {
	globals []int32 // globals[l] is local task l's global ID, ascending
	// locals[g] is global task g's local ID on the shard that owns it:
	// the cluster's one table, read by every shard.
	locals []int32
}

// global returns local task l's global ID.
func (m *idMap) global(l int) int {
	if m == nil {
		return l
	}
	return int(m.globals[l])
}

// local returns global task g's local ID, or -1 when g is not this shard's:
// another shard's task, or no task of the plan. The lone supervisor's
// identity passes every g through, and its tables refuse one they lack.
func (m *idMap) local(g int) int {
	if m == nil {
		return g
	}
	if uint(g) >= uint(len(m.locals)) {
		return -1
	}
	if l := m.locals[g]; int(l) < len(m.globals) && int(m.globals[l]) == g {
		return int(l)
	}
	return -1
}

// ShardName returns the ring member name of shard i.
func ShardName(i int) string { return fmt.Sprintf("shard-%d", i) }

// NewCluster partitions cfg.Plan across cfg.Shards supervisors and starts
// each one on a loopback address, all of them concurrently. The returned
// cluster is serving; callers route workers with ShardMap and finish with
// Wait + Close. If a shard fails to start, NewCluster closes the ones that
// did and returns the lowest failing shard's error.
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
	if lg := cfg.Logf; lg != nil {
		// Each shard serializes its own calls; this lock serializes the
		// shards', so the user's hook sees one call at a time.
		var mu sync.Mutex
		cfg.Logf = func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			lg(format, args...)
		}
	}
	c := &Cluster{
		cfg:     cfg,
		ring:    r,
		metrics: newClusterMetrics(cfg.Metrics),
		parts:   make([][]plan.Run, cfg.Shards),
		ids:     make([]*idMap, cfg.Shards),
		sups:    make([]*Supervisor, cfg.Shards),
		addrs:   make([]string, cfg.Shards),
		changed: make(chan struct{}),
	}

	// Static partition: tasks stay where the ring puts them. Membership
	// changes (kill/restore) bump the epoch for routing but never migrate
	// a task between shards — the shard's journal is the authority for its
	// subset, and moving a task would fork that authority.
	//
	// One pass over the plan's runs routes every task and numbers it in
	// its shard: local IDs are dense and follow global order. locals maps
	// a global ID to its local ID on the shard that owns it, and every
	// shard reads it; globals[i] maps shard i's local IDs back. A shard's
	// runs are one per global run it has tasks in, over its local IDs.
	// shardOf turns the ring's member index into the shard ordinal
	// (Members() is sorted by name, where "shard-10" comes before "shard-2").
	shardOf := make([]int32, r.Len())
	for i, n := range names {
		shardOf[sort.SearchStrings(r.Members(), n)] = int32(i)
	}
	runs := cfg.Plan.Runs()
	total := 0
	if len(runs) > 0 {
		total = runs[len(runs)-1].End()
	}
	locals := make([]int32, total)
	globals := make([][]int32, cfg.Shards)
	for i := range globals {
		// An even share and a quarter more: the ring's imbalance (up to
		// 13 % over an even share on 2 shards) rarely makes one regrow.
		globals[i] = make([]int32, 0, total/cfg.Shards+total/(4*cfg.Shards)+16)
	}
	for _, run := range runs {
		for i := range globals {
			c.parts[i] = append(c.parts[i], plan.Run{First: len(globals[i]), Copies: run.Copies, Ringer: run.Ringer})
		}
		for id, end := run.First, run.End(); id < end; id++ {
			mi, ok := r.LookupIndexUint64(uint64(id))
			if !ok {
				return nil, errors.New("platform: ring lookup failed on non-empty ring")
			}
			g := &globals[shardOf[mi]]
			locals[id] = int32(len(*g))
			*g = append(*g, int32(id))
		}
		for i, g := range globals {
			last := &c.parts[i][len(c.parts[i])-1]
			if last.Count = len(g) - last.First; last.Count == 0 {
				c.parts[i] = c.parts[i][:len(c.parts[i])-1]
			}
		}
	}
	for i, g := range globals {
		if len(g) == 0 {
			return nil, fmt.Errorf(
				"platform: shard %d owns no tasks (%d tasks over %d shards); use fewer shards, more tasks, or more vnodes",
				i, total, cfg.Shards)
		}
		c.ids[i] = &idMap{globals: g, locals: locals}
	}

	// A shard shares only what is read-only (the plan, locals) or locks
	// itself (the registry, the events sink, the Logf above), so the
	// shards are built and started at once.
	errs := make([]error, cfg.Shards)
	var wg sync.WaitGroup
	for i := range c.sups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.startShard(i, nil)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
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
	scfg.runs, scfg.ids, scfg.shardID = c.parts[i], c.ids[i], ShardName(i)
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
	// stays valid. KillShard closed the old listener before it returned,
	// and life keeps a second restore out, so the address is free.
	addr := c.Addr(i)
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	bound, err := sup.Start(addr)
	if err != nil {
		closeShard(sup)
		return fmt.Errorf("shard %d: binding %s: %w", i, addr, err)
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

// bumpEpochLocked advances the shard map epoch, pushes it to every live
// shard so the next reply each sends tells its workers to re-resolve, and
// wakes the workers blocked on older maps. Callers hold mu; c is open.
func (c *Cluster) bumpEpochLocked() {
	c.epoch++
	c.metrics.ringRebalances.Inc()
	for _, s := range c.sups {
		if s != nil {
			s.setEpoch(c.epoch)
		}
	}
	close(c.changed)
	c.changed = make(chan struct{})
}

// ShardMap returns the current routing table.
func (c *Cluster) ShardMap() ShardMap {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := ShardMap{Epoch: c.epoch, VNodes: c.ring.VNodes(), Seed: c.ring.Seed(), changed: c.changed}
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
	c.life.Lock()
	defer c.life.Unlock()
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
// construction), and the shard resumes serving exactly the work its
// journal does not already certify. Restores are serialized with each
// other and with KillShard and Close: a second restore of a shard finds
// it up and is refused before it opens the journal.
func (c *Cluster) RestoreShard(i int) error {
	c.life.Lock()
	defer c.life.Unlock()
	if c.ShardMap().changed == nil {
		return errors.New("platform: cluster is closed")
	}
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
			select {
			case <-s.done:
			case <-s.stop: // killed: its done never closes
			}
		}
	}
}

// Close shuts every live shard down and closes the journals. Its maps are
// all down and final, so sharded workers with work left return an error.
func (c *Cluster) Close() error {
	c.life.Lock()
	defer c.life.Unlock()
	c.mu.Lock()
	sups := slices.Clone(c.sups)
	clear(c.sups)
	if c.changed != nil {
		close(c.changed)
		c.changed = nil
	}
	c.mu.Unlock()
	var first error
	for _, s := range sups {
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
