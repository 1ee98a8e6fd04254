// Package ring implements the consistent-hash ring that partitions the
// platform's task space across supervisor shards (DESIGN.md §14).
//
// Each member is placed on a 64-bit hash circle at VNodes seeded
// positions ("virtual nodes"); a key belongs to the member owning the
// first position at or clockwise after the key's hash. Virtual nodes
// smooth the per-member share (the standard deviation of a member's
// share shrinks roughly with 1/sqrt(VNodes)), and consistent hashing
// gives the minimal-disruption property sharding depends on: adding or
// removing one member moves only the key ranges adjacent to that
// member's positions, never reshuffling the rest of the space.
//
// Placement is fully deterministic in (Config, member set): two
// processes building a ring from the same inputs agree on every lookup,
// which is what lets workers route requests to shards without any
// coordination beyond knowing the member list.
//
// A lookup is O(1) in the number of points: New indexes the sorted points
// by the top bits of their hash, so resolving a key is one table load and
// a short forward scan, not a binary search over every point. It answers
// exactly what that search answers (TestRingLookupMatchesSearch).
//
// Construction and lookup are hostile-input-safe — duplicate members
// collapse, arbitrary byte strings hash fine, an empty ring answers
// ok=false, a hostile VNodes is rejected rather than allocating unbounded
// memory, and the index adds at most two int32 per point
// (FuzzRingLookup drives all of this).
package ring

import (
	"fmt"
	"math/bits"
	"sort"
)

// DefaultVNodes is the virtual-node count used when Config.VNodes is 0.
// 128 keeps the max/min member share within a few tens of percent for
// small member counts (see TestRingBalance) at 2KB of points per member.
const DefaultVNodes = 128

// MaxVNodes bounds Config.VNodes: beyond this the balance improvement is
// negligible and a hostile configuration could force huge allocations.
const MaxVNodes = 1 << 14

// Config parameterizes ring construction.
type Config struct {
	// VNodes is the number of positions each member occupies on the hash
	// circle (0 = DefaultVNodes). More virtual nodes mean better balance
	// and proportionally more memory; values above MaxVNodes are rejected.
	VNodes int
	// Seed perturbs every placement hash, so independent rings (or test
	// reruns) can use disjoint layouts. All parties routing against the
	// same ring must share it.
	Seed uint64
}

// point is one virtual node: a position on the hash circle and the index
// of the member owning it.
type point struct {
	hash   uint64
	member int32
}

// Ring is an immutable consistent-hash ring. Build one with New; derive
// changed-membership rings with With/Without. Immutability is what makes
// a *Ring safe to share across goroutines with no locking.
type Ring struct {
	cfg     Config
	members []string // sorted, deduplicated
	// points is sorted by (hash, member). One sentinel point of hash
	// MaxUint64 sits past its end, at points[:len(points)+1][len(points)],
	// so a forward scan stops without a bounds test.
	points []point
	// bucket indexes points by the top bits of the hash: bucket b holds
	// the hashes h with h>>shift == b, and bucket[b] is the index of the
	// first point at or past its start. The last entry is len(points).
	// There are 2^k buckets for the least 2^k >= len(points), so a bucket
	// holds about one point and the table at most two int32 per point.
	bucket []int32
	shift  uint // 64 - k
}

// splitmix64 is the finalizing mixer used for every placement hash — the
// full-avalanche step of the splitmix64 generator, so consecutive inputs
// (vnode indices, task IDs) land uniformly on the circle.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashString hashes an arbitrary byte string under the ring's seed:
// FNV-1a folded through splitmix64 so short, similar keys still diverge.
func hashString(seed uint64, s string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * prime64
	}
	return splitmix64(h ^ splitmix64(seed))
}

// hashUint64 hashes an integer key (e.g. a task ID) under the seed.
func hashUint64(seed, k uint64) uint64 {
	return splitmix64(splitmix64(seed) ^ splitmix64(k))
}

// New builds a ring over the given members. Members are deduplicated and
// sorted, so the ring is a pure function of (cfg, set-of-members) — the
// caller's ordering never matters. An empty member list yields a valid,
// empty ring whose lookups answer ok=false.
func New(cfg Config, members ...string) (*Ring, error) {
	if cfg.VNodes < 0 {
		return nil, fmt.Errorf("ring: negative VNodes %d", cfg.VNodes)
	}
	if cfg.VNodes == 0 {
		cfg.VNodes = DefaultVNodes
	}
	if cfg.VNodes > MaxVNodes {
		return nil, fmt.Errorf("ring: VNodes %d exceeds the %d cap", cfg.VNodes, MaxVNodes)
	}
	uniq := make([]string, 0, len(members))
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	sort.Strings(uniq)
	r := &Ring{cfg: cfg, members: uniq}
	r.points = make([]point, 0, len(uniq)*cfg.VNodes+1)
	for mi, m := range uniq {
		base := hashString(cfg.Seed, m)
		for v := 0; v < cfg.VNodes; v++ {
			r.points = append(r.points, point{
				hash:   splitmix64(base + uint64(v)),
				member: int32(mi),
			})
		}
	}
	// Sort by (hash, member): the member tiebreak makes ownership of a
	// colliding position deterministic regardless of input order.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	r.index()
	return r, nil
}

// index builds the bucket table over the sorted points and writes the
// sentinel past their end.
func (r *Ring) index() {
	n := len(r.points)
	if n == 0 {
		return
	}
	k := uint(bits.Len(uint(n - 1)))
	r.shift = 64 - k
	r.bucket = make([]int32, 1<<k+1)
	i := 0
	for b := range r.bucket[:1<<k] {
		start := uint64(b) << r.shift // 0 for every b when k = 0
		for i < n && r.points[i].hash < start {
			i++
		}
		r.bucket[b] = int32(i)
	}
	r.bucket[1<<k] = int32(n)
	r.points[:n+1][n] = point{hash: ^uint64(0)}
}

// Members returns the ring's deduplicated, sorted member list. The
// returned slice is shared — callers must not mutate it.
func (r *Ring) Members() []string { return r.members }

// Len reports the number of distinct members.
func (r *Ring) Len() int { return len(r.members) }

// VNodes reports the effective virtual-node count per member.
func (r *Ring) VNodes() int { return r.cfg.VNodes }

// Seed reports the placement seed.
func (r *Ring) Seed() uint64 { return r.cfg.Seed }

// ownerIndex resolves a position on the circle to the index in Members()
// of the owning member: the first point with hash >= h, wrapping past the
// top back to the first point; among equal hashes, the lowest member.
// Every point before bucket[h>>shift] lies below h's bucket, so the answer
// is found scanning forward from there, and lies no further than the next
// bucket's first point. The scan's first two steps add a borrow bit
// rather than branch, since whether zero, one or two points lie below h
// is a coin toss a branch predictor loses; a bucket crowded past
// scanLimit is binary-searched, so a hostile placement still costs
// O(log n).
func (r *Ring) ownerIndex(h uint64) (int, bool) {
	if len(r.points) == 0 {
		return 0, false
	}
	b := h >> r.shift
	i, end := int(r.bucket[b]), int(r.bucket[b+1])
	if end-i > scanLimit {
		i += sort.Search(end-i, func(j int) bool { return r.points[i+j].hash >= h })
	} else {
		ps := r.points[:len(r.points)+1]
		_, c := bits.Sub64(ps[i].hash, h, 0)
		i += int(c)
		_, c = bits.Sub64(ps[i].hash, h, 0)
		i += int(c)
		for ps[i].hash < h {
			i++
		}
	}
	if i == len(r.points) {
		i = 0
	}
	return int(r.points[i].member), true
}

// scanLimit is the most points ownerIndex scans in one bucket before it
// binary-searches the bucket instead.
const scanLimit = 8

func (r *Ring) owner(h uint64) (string, bool) {
	i, ok := r.ownerIndex(h)
	if !ok {
		return "", false
	}
	return r.members[i], true
}

// Lookup routes a string key (e.g. a worker name) to its owning member.
// ok is false only on an empty ring. Total and deterministic for any
// byte string.
func (r *Ring) Lookup(key string) (member string, ok bool) {
	return r.owner(hashString(r.cfg.Seed, key))
}

// LookupUint64 routes an integer key (e.g. a global task ID) to its
// owning member without a string conversion.
func (r *Ring) LookupUint64(key uint64) (member string, ok bool) {
	return r.owner(hashUint64(r.cfg.Seed, key))
}

// LookupIndexUint64 is LookupUint64 answering with the owner's index in
// Members() instead of its name, for callers that route many keys into a
// table they built from Members() once.
func (r *Ring) LookupIndexUint64(key uint64) (member int, ok bool) {
	return r.ownerIndex(hashUint64(r.cfg.Seed, key))
}

// With returns a new ring with one member joined (a no-op copy if the
// member is already present). The receiver is unchanged.
func (r *Ring) With(member string) (*Ring, error) {
	return New(r.cfg, append(append([]string(nil), r.members...), member)...)
}

// Without returns a new ring with one member removed (a no-op copy if
// the member is absent). The receiver is unchanged.
func (r *Ring) Without(member string) (*Ring, error) {
	keep := make([]string, 0, len(r.members))
	for _, m := range r.members {
		if m != member {
			keep = append(keep, m)
		}
	}
	return New(r.cfg, keep...)
}

// Move is one arc of the hash circle whose ownership differs between two
// rings: every key whose hash lies in the half-open arc (Start, End]
// (wrapping) moves From → To. From is "" when the old ring was empty, To
// is "" when the new ring is.
type Move struct {
	Start uint64 // exclusive arc start
	End   uint64 // inclusive arc end
	From  string // owner under the old ring ("" if none)
	To    string // owner under the new ring ("" if none)
}

// Diff computes the deterministic rebalance diff between two rings built
// with the same Config: the minimal set of hash-circle arcs whose owner
// changes, in ascending Start order with adjacent same-(From,To) arcs
// coalesced. A shard join yields moves whose To is always the joined
// member; a leave yields moves whose From is always the departed member
// (TestRingMinimalDisruption proves both).
func Diff(old, next *Ring) []Move {
	// Ownership is constant over any arc containing no virtual node of
	// either ring, so cutting the circle at the union of both rings'
	// points yields arcs of uniform (from, to) ownership: for the arc
	// ending at boundary b, every key in it resolves to owner(b).
	bounds := make([]uint64, 0, len(old.points)+len(next.points))
	for _, p := range old.points {
		bounds = append(bounds, p.hash)
	}
	for _, p := range next.points {
		bounds = append(bounds, p.hash)
	}
	if len(bounds) == 0 {
		return nil
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	uniq := bounds[:1]
	for _, b := range bounds[1:] {
		if b != uniq[len(uniq)-1] {
			uniq = append(uniq, b)
		}
	}
	var moves []Move
	for i, b := range uniq {
		start := uniq[(i+len(uniq)-1)%len(uniq)] // previous boundary (wraps)
		from, _ := old.owner(b)
		to, _ := next.owner(b)
		if from == to {
			continue
		}
		if n := len(moves); n > 0 && moves[n-1].End == start &&
			moves[n-1].From == from && moves[n-1].To == to {
			moves[n-1].End = b // coalesce with the adjacent arc
			continue
		}
		moves = append(moves, Move{Start: start, End: b, From: from, To: to})
	}
	return moves
}

// Covers reports whether the key hash h lies in m's wrapping arc
// (Start, End].
func (m Move) Covers(h uint64) bool {
	if m.Start < m.End {
		return h > m.Start && h <= m.End
	}
	return h > m.Start || h <= m.End // arc wraps past the top
}
