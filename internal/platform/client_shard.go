package platform

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"redundancy/internal/ring"
	"redundancy/internal/rng"
)

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
// While every shard with work left is Down, the worker blocks until the map
// goes stale, or returns an error if it cannot (after Cluster.Close, or on a
// hand-built map). A failed session on an up shard waits out the backoff.
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

	settled := make([]bool, len(m.Shards)) // shard ID -> drained, or banned us
	var total WorkerStats
	var lastBan error
	r := rng.New(workerJitterSeed(cfg))
	failures := 0 // consecutive passes with a failed session and no progress

	for {
		progressed, failed := false, false
		remaining := 0
		for _, id := range order {
			if settled[id] {
				continue
			}
			remaining++
			if m.Shards[id].Down {
				continue // kill window: retry after restore
			}
			scfg := cfg
			scfg.Addr = m.Shards[id].Addr
			if cfg.MaxAssignments > 0 { // below the cap: the check after each session returns at it
				scfg.MaxAssignments = cfg.MaxAssignments - total.Completed
			}
			st, err := RunWorker(scfg)
			total.Completed += st.Completed
			total.Cheated += st.Cheated
			if st.ParticipantID != 0 || total.ParticipantID == 0 {
				total.ParticipantID = st.ParticipantID
			}
			total.Epoch = max(total.Epoch, st.Epoch)
			switch {
			case err == nil:
				// The shard replied done: its task subset is certified (or
				// this worker hit its assignment cap, returned on below).
				settled[id] = true
			case errors.Is(err, ErrBlacklisted):
				settled[id], lastBan = true, err
			default:
				// Transient (connection refused mid-kill, session died):
				// leave the shard pending and move on.
				failed = true
			}
			progressed = progressed || settled[id] || st.Completed > 0
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
		switch {
		case progressed:
			failures = 0
			continue
		case failed:
			failures++
			time.Sleep(reconnectDelay(failures, cfg, r))
		case m.changed == nil:
			return total, errors.New("platform: every shard with work left is down, and the shard map cannot change")
		default:
			<-m.changed // no session ran, so every shard with work left is down in m
		}
		m = lookup()
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
