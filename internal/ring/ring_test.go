package ring

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func mustRing(t *testing.T, cfg Config, members ...string) *Ring {
	t.Helper()
	r, err := New(cfg, members...)
	if err != nil {
		t.Fatalf("New(%+v, %v): %v", cfg, members, err)
	}
	return r
}

func TestRingValidation(t *testing.T) {
	if _, err := New(Config{VNodes: -1}, "a"); err == nil {
		t.Fatal("negative VNodes accepted")
	}
	if _, err := New(Config{VNodes: MaxVNodes + 1}, "a"); err == nil {
		t.Fatal("oversized VNodes accepted")
	}
	r := mustRing(t, Config{}, "a")
	if r.VNodes() != DefaultVNodes {
		t.Fatalf("VNodes = %d, want default %d", r.VNodes(), DefaultVNodes)
	}
}

func TestRingEmptyAndDuplicates(t *testing.T) {
	empty := mustRing(t, Config{Seed: 1})
	if m, ok := empty.Lookup("anything"); ok || m != "" {
		t.Fatalf("empty ring Lookup = (%q, %v), want (\"\", false)", m, ok)
	}
	if m, ok := empty.LookupUint64(42); ok || m != "" {
		t.Fatalf("empty ring LookupUint64 = (%q, %v), want (\"\", false)", m, ok)
	}
	dup := mustRing(t, Config{Seed: 1}, "a", "b", "a", "a", "b")
	if dup.Len() != 2 {
		t.Fatalf("deduplicated Len = %d, want 2", dup.Len())
	}
	plain := mustRing(t, Config{Seed: 1}, "b", "a")
	for k := 0; k < 1000; k++ {
		d, _ := dup.LookupUint64(uint64(k))
		p, _ := plain.LookupUint64(uint64(k))
		if d != p {
			t.Fatalf("key %d: duplicated-member ring routes to %q, plain to %q", k, d, p)
		}
	}
}

// TestRingDeterminism: placement is a pure function of (Config, member
// set) — member order must not matter, and rebuilding must agree.
func TestRingDeterminism(t *testing.T) {
	cfg := Config{VNodes: 64, Seed: 99}
	a := mustRing(t, cfg, "s0", "s1", "s2", "s3")
	b := mustRing(t, cfg, "s3", "s1", "s0", "s2")
	for k := 0; k < 5000; k++ {
		ma, _ := a.LookupUint64(uint64(k))
		mb, _ := b.LookupUint64(uint64(k))
		if ma != mb {
			t.Fatalf("key %d: order-dependent placement %q vs %q", k, ma, mb)
		}
	}
	x, _ := a.Lookup("worker-7")
	y, _ := b.Lookup("worker-7")
	if x != y || x == "" {
		t.Fatalf("string lookup differs: %q vs %q", x, y)
	}
}

// TestRingBalance: at >=128 vnodes the per-member key share stays within
// bound — no member owns more than 1.6x the smallest share over a large
// uniform key population, and every share is within 25% of the mean.
func TestRingBalance(t *testing.T) {
	for _, members := range []int{2, 4, 8} {
		names := make([]string, members)
		for i := range names {
			names[i] = fmt.Sprintf("shard-%d", i)
		}
		r := mustRing(t, Config{VNodes: 128, Seed: 7}, names...)
		counts := make(map[string]int)
		const keys = 200000
		for k := 0; k < keys; k++ {
			m, ok := r.LookupUint64(uint64(k))
			if !ok {
				t.Fatal("lookup failed on populated ring")
			}
			counts[m]++
		}
		min, max := keys, 0
		for _, n := range names {
			c := counts[n]
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if min == 0 {
			t.Fatalf("%d members: a member received zero keys", members)
		}
		if ratio := float64(max) / float64(min); ratio > 1.6 {
			t.Errorf("%d members: max/min share %.3f exceeds 1.6 (max %d, min %d)",
				members, ratio, max, min)
		}
		mean := float64(keys) / float64(members)
		for _, n := range names {
			if dev := (float64(counts[n]) - mean) / mean; dev > 0.25 || dev < -0.25 {
				t.Errorf("%d members: %s share deviates %.1f%% from the mean (>25%%)",
					members, n, dev*100)
			}
		}
	}
}

// TestRingMinimalDisruption: a join moves keys only toward the joined
// member; a leave moves keys only away from the departed member. Every
// other key keeps its owner.
func TestRingMinimalDisruption(t *testing.T) {
	cfg := Config{VNodes: 128, Seed: 11}
	base := mustRing(t, cfg, "s0", "s1", "s2")
	joined, err := base.With("s3")
	if err != nil {
		t.Fatal(err)
	}
	const keys = 50000
	moved := 0
	for k := 0; k < keys; k++ {
		before, _ := base.LookupUint64(uint64(k))
		after, _ := joined.LookupUint64(uint64(k))
		if before != after {
			moved++
			if after != "s3" {
				t.Fatalf("join: key %d moved %q -> %q, not to the joined member", k, before, after)
			}
		}
	}
	if moved == 0 {
		t.Fatal("join moved no keys at all")
	}
	// Roughly 1/4 of the space should move to the 4th member; allow wide
	// slack but catch a rebalance that reshuffles everything.
	if frac := float64(moved) / keys; frac > 0.40 {
		t.Errorf("join moved %.1f%% of keys — far more than its fair share", frac*100)
	}

	left, err := joined.Without("s1")
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < keys; k++ {
		before, _ := joined.LookupUint64(uint64(k))
		after, _ := left.LookupUint64(uint64(k))
		if before != after && before != "s1" {
			t.Fatalf("leave: key %d moved %q -> %q though %q did not leave", k, before, after, before)
		}
		if before == "s1" && after == "s1" {
			t.Fatalf("leave: key %d still owned by the departed member", k)
		}
	}
}

// TestRingDiff: the rebalance diff is deterministic, matches observed
// lookup changes exactly, and labels every arc with the true old/new
// owners.
func TestRingDiff(t *testing.T) {
	cfg := Config{VNodes: 64, Seed: 5}
	old := mustRing(t, cfg, "s0", "s1", "s2")
	next, err := old.With("s3")
	if err != nil {
		t.Fatal(err)
	}
	d1 := Diff(old, next)
	d2 := Diff(old, next)
	if len(d1) == 0 {
		t.Fatal("join produced an empty diff")
	}
	if fmt.Sprint(d1) != fmt.Sprint(d2) {
		t.Fatal("Diff is not deterministic")
	}
	for _, mv := range d1 {
		if mv.To != "s3" {
			t.Fatalf("join diff arc moves %q -> %q, want To = s3", mv.From, mv.To)
		}
	}
	// A key changed owner iff some arc covers its hash, and the arc's
	// From/To match the lookups.
	covered := func(h uint64) (Move, bool) {
		for _, mv := range d1 {
			if mv.Covers(h) {
				return mv, true
			}
		}
		return Move{}, false
	}
	for k := 0; k < 20000; k++ {
		h := hashUint64(cfg.Seed, uint64(k))
		before, _ := old.LookupUint64(uint64(k))
		after, _ := next.LookupUint64(uint64(k))
		mv, in := covered(h)
		if (before != after) != in {
			t.Fatalf("key %d: moved=%v but diff coverage=%v", k, before != after, in)
		}
		if in && (mv.From != before || mv.To != after) {
			t.Fatalf("key %d: arc says %q->%q, lookups say %q->%q", k, mv.From, mv.To, before, after)
		}
	}
	if Diff(old, old) != nil {
		t.Fatal("identical rings produced a non-empty diff")
	}
}

// TestRingDiffEmpty: diffs against an empty ring cover the whole circle
// in one direction only.
func TestRingDiffEmpty(t *testing.T) {
	cfg := Config{VNodes: 16, Seed: 3}
	empty := mustRing(t, cfg)
	one := mustRing(t, cfg, "only")
	for _, mv := range Diff(empty, one) {
		if mv.From != "" || mv.To != "only" {
			t.Fatalf("bootstrap diff arc %+v, want From=\"\" To=\"only\"", mv)
		}
	}
	for _, mv := range Diff(one, empty) {
		if mv.From != "only" || mv.To != "" {
			t.Fatalf("teardown diff arc %+v, want From=\"only\" To=\"\"", mv)
		}
	}
	if Diff(empty, empty) != nil {
		t.Fatal("empty-vs-empty diff is non-empty")
	}
}

// TestRingPlacementGolden pins the exact placement of a reference
// configuration: any change to the hash or sort order shows up as a
// golden diff (and would silently strand journaled shard state in a real
// deployment). Regenerate deliberately with -update.
func TestRingPlacementGolden(t *testing.T) {
	r := mustRing(t, Config{VNodes: 128, Seed: 42}, "shard-0", "shard-1", "shard-2", "shard-3")
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# ring placement: vnodes=%d seed=%d members=%v\n",
		r.VNodes(), r.Seed(), r.Members())
	for k := 0; k < 32; k++ {
		m, _ := r.LookupUint64(uint64(k))
		fmt.Fprintf(&buf, "task %2d -> %s\n", k, m)
	}
	for _, key := range []string{"alice", "bob", "carol", "dave", "mallory", "worker-1", "worker-2"} {
		m, _ := r.Lookup(key)
		fmt.Fprintf(&buf, "key %-8s -> %s\n", key, m)
	}
	path := filepath.Join("testdata", "placement.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("placement drifted from golden:\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

// searchOwner is the reference ownerIndex: a binary search for the first
// point with hash >= h, wrapping past the top to the first point.
func searchOwner(r *Ring, h uint64) (int, bool) {
	if len(r.points) == 0 {
		return 0, false
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return int(r.points[i].member), true
}

// checkAgainstSearch holds ownerIndex to searchOwner at 0, MaxUint64 (the
// wrap), and at each probed point's hash and one on either side of it.
// stride thins the probed points on large rings.
func checkAgainstSearch(t testing.TB, r *Ring, stride int) {
	t.Helper()
	check := func(h uint64) {
		got, gok := r.ownerIndex(h)
		want, wok := searchOwner(r, h)
		if got != want || gok != wok {
			t.Fatalf("%d points: ownerIndex(%#x) = (%d, %v), binary search says (%d, %v)",
				len(r.points), h, got, gok, want, wok)
		}
	}
	check(0)
	check(math.MaxUint64)
	for i := 0; i < len(r.points); i += stride {
		h := r.points[i].hash
		check(h - 1)
		check(h)
		check(h + 1)
	}
}

// ringOfPoints builds a ring straight from a point list, so a test can
// place points where no member name would hash: colliding, or crowded
// into one bucket.
func ringOfPoints(members []string, pts []point) *Ring {
	r := &Ring{cfg: Config{VNodes: 1}, members: members}
	r.points = append(make([]point, 0, len(pts)+1), pts...)
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	r.index()
	return r
}

// TestRingLookupMatchesSearch: the bucketed lookup answers exactly what
// the binary search over the sorted points answers, at every point of
// rings from 1 to 64 members and 1 to MaxVNodes virtual nodes, and on
// hand-placed points that collide (the member tie-break) or crowd one
// bucket past the scan limit.
func TestRingLookupMatchesSearch(t *testing.T) {
	for _, members := range []int{1, 2, 16, 64} {
		names := make([]string, members)
		for i := range names {
			names[i] = fmt.Sprintf("shard-%d", i)
		}
		for _, vnodes := range []int{1, 2, 128, MaxVNodes} {
			r := mustRing(t, Config{VNodes: vnodes, Seed: uint64(members*vnodes + 1)}, names...)
			checkAgainstSearch(t, r, 1)
			for k := uint64(0); k < 1000; k++ {
				m, _ := r.LookupIndexUint64(k)
				if want, _ := searchOwner(r, hashUint64(r.Seed(), k)); m != want {
					t.Fatalf("%d members, %d vnodes: key %d routes to %d, binary search says %d",
						members, vnodes, k, m, want)
				}
			}
		}
	}
	names := []string{"a", "b", "c", "d"}
	var pts []point
	for i := 0; i < 64; i++ {
		// Pairs of members share each position; the top half of the
		// points crowd into the last bucket.
		h := uint64(i) << 58
		if i >= 32 {
			h = math.MaxUint64 - uint64(64-i)
		}
		pts = append(pts, point{hash: h, member: int32(i % 2 * 2)}, point{hash: h, member: int32(i%2*2 + 1)})
	}
	checkAgainstSearch(t, ringOfPoints(names, pts), 1)
	checkAgainstSearch(t, ringOfPoints(names, pts[:1]), 1)
	checkAgainstSearch(t, ringOfPoints(names, []point{{math.MaxUint64, 3}, {math.MaxUint64, 1}}), 1)
}

// TestRingIndexBytesPerPoint pins the bucket table's cost: at most two
// int32 per point on every ring, so the largest ring VNodes allows stays
// within 8 B of table per point on top of its 16 B points.
func TestRingIndexBytesPerPoint(t *testing.T) {
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("shard-%d", i)
	}
	for _, members := range []int{1, 2, 3, 64} {
		for _, vnodes := range []int{1, 3, 128, MaxVNodes} {
			r := mustRing(t, Config{VNodes: vnodes}, names[:members]...)
			if n := len(r.points); cap(r.bucket) > 2*n || cap(r.points) != n+1 {
				t.Fatalf("%d members, %d vnodes: %d points carry %d table entries and %d point slots, want at most %d and exactly %d",
					members, vnodes, n, cap(r.bucket), cap(r.points), 2*n, n+1)
			}
		}
	}
	if empty := mustRing(t, Config{}); empty.bucket != nil {
		t.Fatalf("empty ring built a %d-entry table", len(empty.bucket))
	}
}

func BenchmarkRingLookup(b *testing.B) {
	names := make([]string, 16)
	for i := range names {
		names[i] = fmt.Sprintf("shard-%d", i)
	}
	r, err := New(Config{VNodes: 128, Seed: 1}, names...)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := r.LookupUint64(uint64(i)); !ok {
			b.Fatal("lookup failed")
		}
	}
}
