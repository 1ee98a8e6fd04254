package sim

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"testing"

	"redundancy/internal/rng"
)

// refEvent mirrors eventHeap ordering for the reference-order test and
// the container/heap baseline.
type refEvent struct {
	at   float64
	seq  uint64
	kind int8
	arg  int32
}

// len counts the queued events; an open slot holds none.
func (h *eventHeap) len() int {
	if h.open {
		return len(h.nodes) - 1
	}
	return len(h.nodes)
}

func TestEventHeapOrdering(t *testing.T) {
	h := newEventHeap(4)
	h.push(3.0, evSpawn, 30)
	h.push(1.0, evComplete, 10)
	h.push(2.0, evSpawn, 20)
	// Equal timestamps pop in insertion order.
	h.push(1.0, evSpawn, 11)
	h.push(1.0, evComplete, 12)

	wantArgs := []int32{10, 11, 12, 20, 30}
	for i, want := range wantArgs {
		at, _, arg, ok := h.pop()
		if !ok {
			t.Fatalf("pop %d: heap empty", i)
		}
		if arg != want {
			t.Fatalf("pop %d: got arg %d at t=%v, want %d", i, arg, at, want)
		}
	}
	if _, _, _, ok := h.pop(); ok {
		t.Fatalf("expected empty heap")
	}
}

// TestEventHeapPayloadRoundTrip pins the node key's layout: the widest
// args of both kinds come back out of seq<<32 | arg<<1 | kind intact, and
// the payload never decides an order, so equal-time events still pop by
// seq even when a later push carries the smaller payload.
func TestEventHeapPayloadRoundTrip(t *testing.T) {
	type ev struct {
		kind int8
		arg  int32
	}
	want := []ev{
		{evSpawn, math.MaxInt32 / 2},
		{evComplete, math.MaxInt32},
		{evSpawn, 0},
		{evComplete, 0},
		{evSpawn, math.MaxInt32},
	}
	h := newEventHeap(4)
	for _, e := range want {
		h.push(7.5, e.kind, e.arg)
	}
	for i, e := range want {
		at, kind, arg, ok := h.pop()
		if !ok || at != 7.5 || kind != e.kind || arg != e.arg {
			t.Fatalf("pop %d: got (%v, kind %d, arg %d, %v), want (7.5, kind %d, arg %d)",
				i, at, kind, arg, ok, e.kind, e.arg)
		}
	}
	// A push into the open root slot carries its payload the same way.
	h.push(1, evComplete, 1)
	h.pop()
	h.push(2, evSpawn, math.MaxInt32)
	if at, kind, arg, _ := h.pop(); at != 2 || kind != evSpawn || arg != math.MaxInt32 {
		t.Fatalf("push into the open slot gave (%v, kind %d, arg %d)", at, kind, arg)
	}
}

// TestEventHeapRefusesUnpackable: the seq has 32 bits, so the push after
// seq maxSeq panics instead of wrapping into a wrong order, whether it
// would append or fill an open root slot; a payload the key cannot hold
// panics rather than bleed into its neighbour's bits; and so does a NaN
// or negative time, whose bits would not order as the time does.
func TestEventHeapRefusesUnpackable(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	h := newEventHeap(4)
	h.next = maxSeq
	h.push(1, evComplete, 1) // takes the last seq
	mustPanic("push past maxSeq", func() { h.push(2, evComplete, 2) })
	if _, _, arg, _ := h.pop(); arg != 1 {
		t.Fatalf("last seq: got arg %d, want 1", arg)
	}
	mustPanic("push into the open slot past maxSeq", func() { h.push(2, evComplete, 2) })
	if h.len() != 0 {
		t.Fatalf("refused pushes left %d events", h.len())
	}

	h.reset()
	mustPanic("kind 2", func() { h.push(1, 2, 0) })
	mustPanic("negative kind", func() { h.push(1, -1, 0) })
	mustPanic("negative arg", func() { h.push(1, evComplete, -1) })
	mustPanic("NaN time", func() { h.push(math.NaN(), evComplete, 0) })
	mustPanic("time -1", func() { h.push(-1, evComplete, 0) })
	mustPanic("time -Inf", func() { h.push(math.Inf(-1), evComplete, 0) })
	if h.len() != 0 {
		t.Fatalf("refused pushes left %d events", h.len())
	}
}

// TestEventHeapMatchesStableSortOrder cross-checks the typed heap against
// a sort.SliceStable reference on (time, insertion order) — the contract
// the scenario goldens depend on. The second half schedules events
// mid-run, between pops, the way running events schedule followers: one
// push into the popped root's open slot (a completion scheduling its
// worker's next), or an equal-timestamp push and a later one, the first
// filling the slot. A push into the slot takes a fresh seq, so it must
// still pop after every earlier-pushed tie.
func TestEventHeapMatchesStableSortOrder(t *testing.T) {
	r := rng.New(4242)
	h := newEventHeap(8)
	var ref []refEvent // kept in push order, so a stable sort on at breaks ties by seq
	add := func(at float64) int32 {
		arg := int32(len(ref))
		ref = append(ref, refEvent{at: at, arg: arg})
		return arg
	}
	push := func(at float64) { h.push(at, 0, add(at)) }
	for i := 0; i < 500; i++ {
		push(float64(r.Intn(20)))
	}
	sorted := func() []refEvent {
		want := append([]refEvent(nil), ref...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		return want
	}
	popped := 0
	check := func(n int) {
		t.Helper()
		// Everything already popped precedes, in the total order, anything
		// still queued or pushed since (pushes never go back in time), so
		// one stable sort of the whole history gives the full expected
		// sequence.
		want := sorted()
		for ; n > 0; n-- {
			at, _, arg, ok := h.pop()
			if !ok {
				t.Fatalf("heap drained early at pop %d", popped)
			}
			if at != want[popped].at || arg != want[popped].arg {
				t.Fatalf("pop %d: typed heap gave (%v,%d), stable sort gives (%v,%d)",
					popped, at, arg, want[popped].at, want[popped].arg)
			}
			popped++
			switch op := r.Intn(8); {
			case op == 0 && len(ref) < 1000:
				push(at + float64(r.Intn(3)))
				want = sorted()
			case op == 1 && len(ref) < 1000:
				push(at)
				push(at + float64(r.Intn(3)))
				want = sorted()
			}
		}
	}
	check(250)
	for h.len() > 0 {
		check(h.len())
	}
	if popped != len(ref) {
		t.Fatalf("popped %d of %d events", popped, len(ref))
	}
}

// TestEventHeapSteadyStateAllocFree is the satellite regression guard: a
// push/pop cycle at the steady-state high-water mark must not allocate.
func TestEventHeapSteadyStateAllocFree(t *testing.T) {
	h := newEventHeap(64)
	r := rng.New(5)
	// Reach the high-water mark first.
	for i := int32(0); i < 64; i++ {
		h.push(r.Float64()*100, 0, i)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		at, _, arg, _ := h.pop()
		h.push(at+r.Float64()*10, 0, arg)
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestEventHeapReset(t *testing.T) {
	h := newEventHeap(4)
	for i := int32(0); i < 10; i++ {
		h.push(float64(10-i), 0, i)
	}
	h.reset()
	if h.len() != 0 {
		t.Fatalf("reset left len=%d", h.len())
	}
	h.push(2, 0, 20)
	h.push(1, 0, 10)
	if _, _, arg, _ := h.pop(); arg != 10 {
		t.Fatalf("after reset: got %d want 10", arg)
	}
	// A reset closes an open slot: the popped event does not come back,
	// and the next push appends.
	h.reset()
	h.push(5, 0, 50)
	h.pop()
	h.reset()
	h.push(3, 0, 30)
	if _, _, arg, _ := h.pop(); arg != 30 || h.len() != 0 {
		t.Fatalf("after reset with an open slot: got %d, len %d", arg, h.len())
	}
	if _, _, _, ok := h.pop(); ok {
		t.Fatal("reset heap popped a stale event")
	}
}

// TestEventHeapMatchesReference is the open slot's differential test:
// random interleavings of pushes and pops, at arbitrary times (earlier
// than the last pop too) drawn from few values so ties abound, must pop
// exactly what a linear scan for the least (time, seq) of the live events
// pops, and len must count the live events, never the open slot. The
// times include −0, which ties +0 and pops as +0 in seq order, and +Inf,
// which orders after every finite time.
func TestEventHeapMatchesReference(t *testing.T) {
	r := rng.New(77)
	for round := 0; round < 50; round++ {
		h := newEventHeap(4)
		var live []refEvent
		seq := uint64(0)
		for op := 0; op < 2000; op++ {
			if r.Intn(100) < 52 {
				at := float64(r.Intn(18))
				switch at {
				case 16:
					at = math.Copysign(0, -1)
				case 17:
					at = math.Inf(1)
				}
				arg := int32(r.Intn(1 << 20))
				h.push(at, evComplete, arg)
				live = append(live, refEvent{at: at, seq: seq, arg: arg})
				seq++
			} else {
				at, _, arg, ok := h.pop()
				if ok != (len(live) > 0) {
					t.Fatalf("round %d op %d: pop ok=%v with %d live events", round, op, ok, len(live))
				}
				if ok {
					m := 0
					for i, e := range live {
						if e.at < live[m].at || (e.at == live[m].at && e.seq < live[m].seq) {
							m = i
						}
					}
					if at != live[m].at || arg != live[m].arg || math.Signbit(at) {
						t.Fatalf("round %d op %d: heap popped (%v,%d), reference (%v,%d)",
							round, op, at, arg, live[m].at, live[m].arg)
					}
					live = append(live[:m], live[m+1:]...)
				}
			}
			if h.len() != len(live) {
				t.Fatalf("round %d op %d: len %d, %d live events", round, op, h.len(), len(live))
			}
		}
	}
}

// TestEventTreeMatchesReference is the tree's differential test, run the
// way the tail engine drives it: random interleavings of per-slot sets
// (replacing a slot's event or filling an idle one) and clears with heap
// pushes, merged by eventTree.pop, must pop exactly what a linear scan for
// the least (time, seq) of the live events pops, and nothing once none is
// live; an idle slot's sentinel never pops. A tree pop leaves its event in
// the slot, so, as in the engine, the slot is set or cleared before the
// next pop. Times are drawn from few values, so ties abound, between slots
// and between a slot and the heap, and include −0 (which ties +0 and pops
// as +0 in seq order) and +Inf. P covers the single-leaf tree, an odd one
// and the tail engine's fleet sizes.
func TestEventTreeMatchesReference(t *testing.T) {
	r := rng.New(91)
	drawAt := func() float64 {
		switch at := float64(r.Intn(18)); at {
		case 16:
			return math.Copysign(0, -1)
		case 17:
			return math.Inf(1)
		default:
			return at
		}
	}
	for _, p := range []int{1, 3, 256, 1000} {
		for round := 0; round < 10; round++ {
			h, tr := newEventHeap(4), newEventTree(p)
			// slots[w] is slot w's live event; the heap's live events
			// are kept in heapLive.
			slots := make([]*refEvent, p)
			var heapLive []refEvent
			popped := -1 // the slot a tree pop left its event in
			set := func(w int) {
				at := drawAt()
				slots[w] = &refEvent{at: at, seq: h.next, kind: evComplete, arg: int32(w)}
				tr.set(w, h.node(at, evComplete, int32(w)))
			}
			empty := func(w int) {
				slots[w] = nil
				tr.clear(w)
			}
			for op := 0; op < 4*p+2000; op++ {
				switch c := r.Intn(100); {
				case c < 40:
					set(r.Intn(p))
				case c < 48:
					empty(r.Intn(p))
				case c < 62:
					at, arg := drawAt(), int32(r.Intn(1<<20))
					heapLive = append(heapLive, refEvent{at: at, seq: h.next, kind: evSpawn, arg: arg})
					h.push(at, evSpawn, arg)
				default:
					if popped >= 0 {
						if r.Intn(3) == 0 {
							empty(popped)
						} else {
							set(popped)
						}
						popped = -1
					}
					var want *refEvent
					for _, e := range slots {
						if e != nil && (want == nil || e.at < want.at || (e.at == want.at && e.seq < want.seq)) {
							want = e
						}
					}
					inHeap := -1
					for i := range heapLive {
						if e := &heapLive[i]; want == nil || e.at < want.at || (e.at == want.at && e.seq < want.seq) {
							want, inHeap = e, i
						}
					}
					at, kind, arg, ok := tr.pop(h)
					if ok != (want != nil) {
						t.Fatalf("P=%d round %d op %d: pop ok=%v (%v, kind %d, arg %d), reference has live events: %v",
							p, round, op, ok, at, kind, arg, want != nil)
					}
					if !ok {
						continue
					}
					if math.IsNaN(at) || at != want.at || math.Signbit(at) || kind != want.kind || arg != want.arg {
						t.Fatalf("P=%d round %d op %d: popped (%v, kind %d, arg %d), reference (%v, kind %d, arg %d)",
							p, round, op, at, kind, arg, want.at, want.kind, want.arg)
					}
					if inHeap >= 0 {
						heapLive = append(heapLive[:inHeap], heapLive[inHeap+1:]...)
					} else {
						slots[arg] = nil
						popped = int(arg)
					}
				}
			}
		}
	}
}

// TestEventTreeSteadyStateAllocFree: the tail engine's cycle, a pop and
// the popped slot's next event set, or a spawn popped and pushed again,
// allocates nothing.
func TestEventTreeSteadyStateAllocFree(t *testing.T) {
	h, tr := newEventHeap(64), newEventTree(256)
	r := rng.New(5)
	for w := 0; w < 256; w++ {
		tr.set(w, h.node(r.Float64()*100, evComplete, int32(w)))
	}
	for i := int32(0); i < 8; i++ {
		h.push(r.Float64()*100, evSpawn, i)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		at, kind, arg, _ := tr.pop(h)
		if kind == evComplete {
			tr.set(int(arg), h.node(at+r.Float64()*10, evComplete, arg))
		} else {
			h.push(at+r.Float64()*10, evSpawn, arg)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state tree cycle allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkEventHeap measures the steady-state push/pop cycle at a
// fleet-sized depth and at the scenario lab's (one completion in flight
// per busy worker, 10^5 of them); compare BenchmarkContainerHeapBaseline
// on the same workload shape.
func BenchmarkEventHeap(b *testing.B) {
	for _, depth := range []int{256, 1024, 100_000} {
		b.Run(fmt.Sprintf("N%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			h := newEventHeap(depth)
			r := rng.New(5)
			for i := int32(0); i < int32(depth); i++ {
				h.push(r.Float64()*100, 0, i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at, _, arg, _ := h.pop()
				h.push(at+r.Float64()*10, 0, arg)
			}
		})
	}
}

// BenchmarkEventTree measures the tail engine's completion cycle on the
// tree at its fleet sizes: pop the earliest slot's event and set the slot's
// next, with every slot busy and no spawns queued. Compare
// BenchmarkEventHeap's N256 on the same cycle.
func BenchmarkEventTree(b *testing.B) {
	for _, p := range []int{256, 1000} {
		b.Run(fmt.Sprintf("N%d", p), func(b *testing.B) {
			b.ReportAllocs()
			h, tr := newEventHeap(16), newEventTree(p)
			r := rng.New(5)
			for w := 0; w < p; w++ {
				tr.set(w, h.node(r.Float64()*100, evComplete, int32(w)))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at, _, arg, _ := tr.pop(h)
				tr.set(int(arg), h.node(at+r.Float64()*10, evComplete, arg))
			}
		})
	}
}

// BenchmarkContainerHeapBaseline is the shape the typed heap replaced: a
// container/heap of interface-boxed events, for before/after comparison.
func BenchmarkContainerHeapBaseline(b *testing.B) {
	b.ReportAllocs()
	q := &refHeap{}
	r := rng.New(5)
	for i := 0; i < 1024; i++ {
		heap.Push(q, refEvent{at: r.Float64() * 100, seq: uint64(i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := heap.Pop(q).(refEvent)
		heap.Push(q, refEvent{at: e.at + r.Float64()*10, seq: e.seq})
	}
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
