package platform

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"redundancy/internal/ring"
)

// shardedStallDelay paces retry passes when every remaining shard is
// unreachable (e.g. the worker's home shard is down between KillShard and
// RestoreShard): long enough not to spin, short enough that a restored
// shard is picked up promptly.
const shardedStallDelay = 25 * time.Millisecond

// RunShardedWorker drives one worker identity across every shard of a
// cluster. The worker builds the cluster's consistent-hash ring once from
// the first ShardMap (same vnode count and seed, so placement agrees with
// the supervisors') and serves shards starting at its home shard — the ring
// owner of its own name, which spreads workers across shards without any
// central assignment. Each shard session is an ordinary RunWorker run: the
// shard is marked drained when it replies done, banned when it blacklists
// this worker (ErrBlacklisted), and retried on a later pass when it is
// unreachable — the kill/restore window of a chaos event.
//
// Replies carry the cluster's shard-map epoch; when a reply's epoch is
// newer than the map the worker is routing by, the worker calls lookup
// again before the next shard session. Kill and restore keep every shard's
// ID, name, address and task subset, so a newer map only changes which
// shards are Down: the ring and the visit order stay as built. lookup must
// be safe for concurrent use, as Cluster.ShardMap is.
//
// The returned stats are cumulative across shards (ParticipantID is
// shard-local and reports the last session's ID; Epoch the newest epoch
// seen, 0 if the cluster never changed membership). The error is nil once
// every shard has drained; if every shard that still has work has banned
// this worker, the ban error is returned.
func RunShardedWorker(cfg WorkerConfig, lookup func() ShardMap) (WorkerStats, error) {
	m := lookup()
	if len(m.Shards) == 0 {
		return WorkerStats{}, errors.New("platform: shard map is empty")
	}
	// Visit order: home shard first (ring owner of this worker's name),
	// then the rest in ID order. Workers hash to different homes, so the
	// fleet spreads across shards instead of stampeding shard 0.
	order, err := shardOrder(m, cfg.Name)
	if err != nil {
		return WorkerStats{}, err
	}

	done := make([]bool, len(m.Shards))   // shard ID -> drained
	banned := make([]bool, len(m.Shards)) // shard ID -> blacklisted us
	var total WorkerStats
	var lastBan error

	for {
		progressed := false
		remaining := 0
		for _, id := range order {
			if done[id] || banned[id] {
				continue
			}
			remaining++
			if m.Shards[id].Down {
				continue // kill window: retry after restore
			}
			scfg := cfg
			scfg.Addr = m.Shards[id].Addr
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
				done[id] = true
				progressed = true
			case errors.Is(err, ErrBlacklisted):
				banned[id] = true
				lastBan = err
				progressed = true
			default:
				// Transient (connection refused mid-kill, session died):
				// leave the shard pending and move on.
			}
			if cfg.MaxAssignments > 0 && total.Completed >= cfg.MaxAssignments {
				return total, nil
			}
			// A newer epoch in any reply means a shard went down or came
			// back: re-read the Down flags before routing to the next one.
			if total.Epoch > m.Epoch {
				m = lookup()
			}
		}
		if remaining == 0 {
			// Every shard drained or banned this worker; a ban on any of
			// them leaves its work undone by us.
			return total, lastBan
		}
		if !progressed {
			// Every remaining shard was unreachable or idle: refresh the
			// map (a restore may have landed) and back off briefly.
			m = lookup()
			time.Sleep(shardedStallDelay)
		}
	}
}

// shardNames extracts the ring member names from a shard map.
func shardNames(m ShardMap) []string {
	names := make([]string, len(m.Shards))
	for i, s := range m.Shards {
		names[i] = s.Name
	}
	return names
}

// shardOrder builds the shard ring from m and returns every shard ID
// starting at the ring owner of key and continuing in ID order, wrapping
// around.
func shardOrder(m ShardMap, key string) ([]int, error) {
	names := shardNames(m)
	r, err := ring.New(ring.Config{VNodes: m.VNodes, Seed: m.Seed}, names...)
	if err != nil {
		return nil, fmt.Errorf("platform: rebuilding shard ring: %w", err)
	}
	home, _ := r.Lookup(key)
	start := slices.Index(names, home)
	order := make([]int, len(names))
	for i := range order {
		order[i] = (start + i) % len(names)
	}
	return order, nil
}
