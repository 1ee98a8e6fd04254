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

// popMin removes and returns the earliest event the way the engines do:
// peekMin, then dropMin.
func popMin(h *eventHeap) (at float64, arg int32, ok bool) {
	at, _, arg, ok = h.peekMin()
	if ok {
		h.dropMin()
	}
	return at, arg, ok
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
		at, arg, ok := popMin(h)
		if !ok {
			t.Fatalf("pop %d: heap empty", i)
		}
		if arg != want {
			t.Fatalf("pop %d: got arg %d at t=%v, want %d", i, arg, at, want)
		}
	}
	if _, _, ok := popMin(h); ok {
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
		at, kind, arg, ok := h.peekMin()
		if !ok || at != 7.5 || kind != e.kind || arg != e.arg {
			t.Fatalf("pop %d: got (%v, kind %d, arg %d, %v), want (7.5, kind %d, arg %d)",
				i, at, kind, arg, ok, e.kind, e.arg)
		}
		h.dropMin()
	}
	// replaceTop carries its payload the same way.
	h.push(1, evComplete, 1)
	h.replaceTop(2, evSpawn, math.MaxInt32)
	if at, kind, arg, _ := h.peekMin(); at != 2 || kind != evSpawn || arg != math.MaxInt32 {
		t.Fatalf("replaceTop gave (%v, kind %d, arg %d)", at, kind, arg)
	}
}

// TestEventHeapRefusesUnpackable: the seq has 32 bits, so the push after
// seq maxSeq panics instead of wrapping into a wrong order, through push
// and replaceTop alike; and a payload the key cannot hold panics rather
// than bleed into its neighbour's bits.
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
	if _, _, arg, _ := h.peekMin(); arg != 1 {
		t.Fatalf("last seq: got arg %d, want 1", arg)
	}
	mustPanic("push past maxSeq", func() { h.push(2, evComplete, 2) })
	mustPanic("replaceTop past maxSeq", func() { h.replaceTop(2, evComplete, 2) })

	h.reset()
	mustPanic("kind 2", func() { h.push(1, 2, 0) })
	mustPanic("negative kind", func() { h.push(1, -1, 0) })
	mustPanic("negative arg", func() { h.push(1, evComplete, -1) })
	if h.len() != 0 {
		t.Fatalf("refused pushes left %d events", h.len())
	}
}

// TestEventHeapMatchesStableSortOrder cross-checks the typed heap against
// a sort.SliceStable reference on (time, insertion order) — the contract
// the scenario goldens depend on. The second half schedules events
// mid-run, between pops, the way running events schedule followers: a
// replaceTop of the root (a completion scheduling its worker's next), or
// an equal-timestamp push and a later one. A replaced root takes a fresh
// seq, so the reference records it as pushed after the pop; either way it
// must still pop after every earlier-pushed tie.
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
			at, _, arg, ok := h.peekMin()
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
				next := at + float64(r.Intn(3))
				h.replaceTop(next, 0, add(next))
				want = sorted()
			case op == 1 && len(ref) < 1000:
				h.dropMin()
				push(at)
				push(at + float64(r.Intn(3)))
				want = sorted()
			default:
				h.dropMin()
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
		at, arg, _ := popMin(h)
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
	if _, arg, _ := popMin(h); arg != 10 {
		t.Fatalf("after reset: got %d want 10", arg)
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
				at, arg, _ := popMin(h)
				h.push(at+r.Float64()*10, 0, arg)
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
