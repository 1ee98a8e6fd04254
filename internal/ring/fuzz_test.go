package ring

import (
	"strings"
	"testing"
)

// FuzzRingLookup throws hostile member sets and arbitrary keys at ring
// construction and lookup: construction must reject only out-of-range
// VNodes (never panic or over-allocate), and on any ring that builds,
// lookup must be total (ok=true iff the ring has members, the answer
// always a real member), deterministic (an independently rebuilt ring
// gives the same answer for every probed key), exactly the binary
// search's answer (checkAgainstSearch, at the keys' hashes and around the
// ring's points), and indexed at no more than two int32 per point.
func FuzzRingLookup(f *testing.F) {
	f.Add("a,b,c", uint16(128), uint64(1), "task-1", uint64(7))
	f.Add("", uint16(0), uint64(0), "", uint64(0))
	f.Add("dup,dup,dup", uint16(1), uint64(42), "\x00\xff", uint64(1<<63))
	f.Add("x", uint16(512), uint64(99), strings.Repeat("k", 100), uint64(3))
	f.Add(",,,", uint16(3), uint64(5), ",", uint64(0))
	f.Fuzz(func(t *testing.T, memberBlob string, vnodes uint16, seed uint64, key string, ikey uint64) {
		members := strings.Split(memberBlob, ",")
		if len(members) > 64 {
			members = members[:64] // bound work, not validity
		}
		cfg := Config{VNodes: int(vnodes), Seed: seed}
		r, err := New(cfg, members...)
		if err != nil {
			if int(vnodes) <= MaxVNodes {
				t.Fatalf("New rejected in-range config %+v: %v", cfg, err)
			}
			return
		}
		r2, err := New(cfg, members...)
		if err != nil {
			t.Fatalf("rebuild of accepted config failed: %v", err)
		}
		inSet := make(map[string]bool, len(members))
		for _, m := range members {
			inSet[m] = true
		}
		check := func(m string, ok bool, m2 string, ok2 bool) {
			if ok != (r.Len() > 0) {
				t.Fatalf("ok=%v on ring with %d members", ok, r.Len())
			}
			if ok && !inSet[m] {
				t.Fatalf("lookup answered non-member %q", m)
			}
			if m != m2 || ok != ok2 {
				t.Fatalf("nondeterministic lookup: (%q,%v) vs (%q,%v)", m, ok, m2, ok2)
			}
		}
		if len(r.bucket) > 2*len(r.points) {
			t.Fatalf("%d points indexed by %d table entries", len(r.points), len(r.bucket))
		}
		for _, h := range []uint64{ikey, hashString(seed, key), hashUint64(seed, ikey)} {
			got, gok := r.ownerIndex(h)
			if want, wok := searchOwner(r, h); got != want || gok != wok {
				t.Fatalf("ownerIndex(%#x) = (%d, %v), binary search says (%d, %v)", h, got, gok, want, wok)
			}
		}
		checkAgainstSearch(t, r, 1+len(r.points)>>10)
		m, ok := r.Lookup(key)
		m2, ok2 := r2.Lookup(key)
		check(m, ok, m2, ok2)
		m, ok = r.LookupUint64(ikey)
		m2, ok2 = r2.LookupUint64(ikey)
		check(m, ok, m2, ok2)
		// The rebalance diff must also never panic on hostile inputs.
		if r.Len() > 0 {
			smaller, err := r.Without(r.Members()[0])
			if err != nil {
				t.Fatalf("Without: %v", err)
			}
			Diff(r, smaller)
		}
	})
}
