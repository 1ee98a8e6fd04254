package platform

import (
	"errors"
	"fmt"
	"time"

	"redundancy/internal/ring"
)

// shardedStallDelay paces retry passes when every remaining shard is
// unreachable (e.g. the worker's home shard is down between KillShard and
// RestoreShard): long enough not to spin, short enough that a restored
// shard is picked up promptly.
const shardedStallDelay = 25 * time.Millisecond

// RunShardedWorker drives one worker identity across every shard of a
// cluster. The worker rebuilds the cluster's consistent-hash ring locally
// from the ShardMap (same vnode count and seed, so placement agrees with
// the supervisors') and serves shards starting at its home shard — the ring
// owner of its own name, which spreads workers across shards without any
// central assignment. Each shard session is an ordinary RunWorker run: the
// shard is marked drained when it replies done, banned when it blacklists
// this worker (ErrBlacklisted), and retried on a later pass when it is
// unreachable — the kill/restore window of a chaos event.
//
// Replies carry the cluster's shard-map epoch; when a reply's epoch is
// newer than the map the worker is routing by, the worker calls lookup
// again and re-resolves before the next shard session. lookup must be
// safe for concurrent use, as Cluster.ShardMap is.
//
// The returned stats are cumulative across shards (ParticipantID is
// shard-local and reports the last session's ID; Epoch the newest epoch
// seen). The error is nil once every shard has drained; if every shard
// that still has work has banned this worker, the ban error is returned.
func RunShardedWorker(cfg WorkerConfig, lookup func() ShardMap) (WorkerStats, error) {
	m := lookup()
	if len(m.Shards) == 0 {
		return WorkerStats{}, errors.New("platform: shard map is empty")
	}
	r, err := ring.New(ring.Config{VNodes: m.VNodes, Seed: m.Seed}, shardNames(m)...)
	if err != nil {
		return WorkerStats{}, fmt.Errorf("platform: rebuilding shard ring: %w", err)
	}

	// Visit order: home shard first (ring owner of this worker's name),
	// then the rest in ring order. Workers hash to different homes, so the
	// fleet spreads across shards instead of stampeding shard 0.
	order := shardOrder(r, m, cfg.Name)

	done := make(map[string]bool, len(m.Shards))   // shard name -> drained
	banned := make(map[string]bool, len(m.Shards)) // shard name -> blacklisted us
	var total WorkerStats
	var lastBan error

	for {
		progressed := false
		remaining := 0
		for _, name := range order {
			if done[name] || banned[name] {
				continue
			}
			remaining++
			info, ok := findShard(m, name)
			if !ok || info.Down {
				continue // kill window: retry after restore
			}
			scfg := cfg
			scfg.Addr = info.Addr
			if cfg.MaxAssignments > 0 {
				scfg.MaxAssignments = cfg.MaxAssignments - total.Completed
				if scfg.MaxAssignments <= 0 {
					return total, nil
				}
			}
			st, err := RunWorker(scfg)
			total.Completed += st.Completed
			total.Cheated += st.Cheated
			if st.ParticipantID != 0 || total.ParticipantID == 0 {
				total.ParticipantID = st.ParticipantID
			}
			if st.Epoch > total.Epoch {
				total.Epoch = st.Epoch
			}
			if st.Completed > 0 {
				progressed = true
			}
			switch {
			case err == nil:
				// The shard replied done: its task subset is certified (or
				// this worker hit its assignment cap mid-session, caught
				// above on the next pass).
				done[name] = true
				progressed = true
			case errors.Is(err, ErrBlacklisted):
				banned[name] = true
				lastBan = err
				progressed = true
			default:
				// Transient (connection refused mid-kill, session died):
				// leave the shard pending and move on.
			}
			if cfg.MaxAssignments > 0 && total.Completed >= cfg.MaxAssignments {
				return total, nil
			}
			// A newer epoch in any reply means membership changed under
			// us: re-resolve the map before routing to the next shard.
			if total.Epoch > m.Epoch {
				m = lookup()
				if nr, rerr := ring.New(ring.Config{VNodes: m.VNodes, Seed: m.Seed}, shardNames(m)...); rerr == nil {
					r = nr
					order = shardOrder(r, m, cfg.Name)
				}
			}
		}
		if remaining == 0 {
			break
		}
		if !progressed {
			// Every remaining shard was unreachable or idle: refresh the
			// map (a restore may have landed) and back off briefly.
			m = lookup()
			time.Sleep(shardedStallDelay)
		}
	}
	if len(banned) > 0 && len(done) < len(m.Shards) {
		return total, lastBan
	}
	return total, nil
}

// shardNames extracts the ring member names from a shard map.
func shardNames(m ShardMap) []string {
	names := make([]string, len(m.Shards))
	for i, s := range m.Shards {
		names[i] = s.Name
	}
	return names
}

// findShard returns the ShardInfo with the given ring name.
func findShard(m ShardMap, name string) (ShardInfo, bool) {
	for _, s := range m.Shards {
		if s.Name == name {
			return s, true
		}
	}
	return ShardInfo{}, false
}

// shardOrder returns every shard name starting at the ring owner of key
// and continuing in shard-map order, wrapping around.
func shardOrder(r *ring.Ring, m ShardMap, key string) []string {
	home, _ := r.Lookup(key)
	start := 0
	for i, s := range m.Shards {
		if s.Name == home {
			start = i
			break
		}
	}
	order := make([]string, 0, len(m.Shards))
	for i := 0; i < len(m.Shards); i++ {
		order = append(order, m.Shards[(start+i)%len(m.Shards)].Name)
	}
	return order
}
