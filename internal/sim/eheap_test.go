package sim

import (
	"container/heap"
	"sort"
	"testing"

	"redundancy/internal/rng"
)

// refEvent mirrors eventHeap ordering for the model-based test.
type refEvent struct {
	at   float64
	seq  uint64
	kind int8
	arg  int32
}

func TestEventHeapOrdering(t *testing.T) {
	h := newEventHeap(4)
	h.push(3.0, 1, 30)
	h.push(1.0, 2, 10)
	h.push(2.0, 3, 20)
	// Equal timestamps pop in insertion order.
	h.push(1.0, 4, 11)
	h.push(1.0, 5, 12)

	wantArgs := []int32{10, 11, 12, 20, 30}
	for i, want := range wantArgs {
		at, _, arg, ok := h.popMin()
		if !ok {
			t.Fatalf("pop %d: heap empty", i)
		}
		if arg != want {
			t.Fatalf("pop %d: got arg %d at t=%v, want %d", i, arg, at, want)
		}
	}
	if _, _, _, ok := h.popMin(); ok {
		t.Fatalf("expected empty heap")
	}
}

func TestEventHeapUpdateRemove(t *testing.T) {
	h := newEventHeap(4)
	a := h.push(5.0, 0, 1)
	b := h.push(6.0, 0, 2)
	c := h.push(7.0, 0, 3)

	// Move c to the front, remove a entirely.
	h.update(c, 1.0)
	h.remove(a)

	at, _, arg, _ := h.popMin()
	if arg != 3 || at != 1.0 {
		t.Fatalf("after update/remove: got arg %d at %v, want 3 at 1.0", arg, at)
	}
	at, _, arg, _ = h.popMin()
	if arg != 2 || at != 6.0 {
		t.Fatalf("second pop: got arg %d at %v, want 2 at 6.0", arg, at)
	}
	if h.len() != 0 {
		t.Fatalf("heap should be empty, len=%d", h.len())
	}
	_ = b
}

// TestEventHeapModel drives the indexed heap and a sorted-slice reference
// model with the same random operation stream and demands identical pop
// sequences, including equal-timestamp FIFO tie-breaks and arbitrary
// interleavings of update and remove.
func TestEventHeapModel(t *testing.T) {
	r := rng.New(99)
	h := newEventHeap(8)
	type live struct {
		id int32
		ev refEvent
	}
	var model []live
	var seq uint64

	popRef := func() refEvent {
		best := 0
		for i := 1; i < len(model); i++ {
			e, b := model[i].ev, model[best].ev
			if e.at < b.at || (e.at == b.at && e.seq < b.seq) {
				best = i
			}
		}
		ev := model[best].ev
		model = append(model[:best], model[best+1:]...)
		return ev
	}

	for step := 0; step < 20000; step++ {
		switch op := r.Intn(10); {
		case op < 5 || len(model) == 0: // push
			at := float64(r.Intn(50)) // coarse times force ties
			arg := int32(step)
			id := h.push(at, 0, arg)
			model = append(model, live{id, refEvent{at: at, seq: seq, arg: arg}})
			seq++
		case op < 7: // pop both
			at, _, arg, ok := h.popMin()
			if !ok {
				t.Fatalf("step %d: heap empty but model has %d", step, len(model))
			}
			want := popRef()
			if at != want.at || arg != want.arg {
				t.Fatalf("step %d: pop (%v,%d) want (%v,%d)", step, at, arg, want.at, want.arg)
			}
		case op < 8: // update a random live event
			i := r.Intn(len(model))
			at := float64(r.Intn(50))
			h.update(model[i].id, at)
			model[i].ev.at = at
			model[i].ev.seq = seq // update() reassigns seq
			seq++
		default: // remove a random live event
			i := r.Intn(len(model))
			h.remove(model[i].id)
			model = append(model[:i], model[i+1:]...)
		}
		if h.len() != len(model) {
			t.Fatalf("step %d: len %d vs model %d", step, h.len(), len(model))
		}
	}
	// Drain and compare the full remaining order.
	for len(model) > 0 {
		at, _, arg, ok := h.popMin()
		if !ok {
			t.Fatalf("drain: heap empty early")
		}
		want := popRef()
		if at != want.at || arg != want.arg {
			t.Fatalf("drain: pop (%v,%d) want (%v,%d)", at, arg, want.at, want.arg)
		}
	}
}

// TestEventHeapMatchesStableSortOrder cross-checks the typed heap against
// a sort.SliceStable reference on (time, insertion order) — the contract
// the scenario goldens depend on. The second half injects equal-timestamp
// events mid-run, between pops, the way running events schedule followers:
// they must still pop after every earlier-pushed tie.
func TestEventHeapMatchesStableSortOrder(t *testing.T) {
	r := rng.New(4242)
	h := newEventHeap(8)
	var ref []refEvent // kept in push order, so a stable sort on at breaks ties by seq
	push := func(at float64) {
		arg := int32(len(ref))
		h.push(at, 0, arg)
		ref = append(ref, refEvent{at: at, arg: arg})
	}
	for i := 0; i < 500; i++ {
		push(float64(r.Intn(20)))
	}
	popped := 0
	check := func(n int) {
		t.Helper()
		// Everything already popped precedes, in the total order, anything
		// still queued or pushed since (pushes never go back in time), so
		// one stable sort of the whole history gives the full expected
		// sequence.
		want := append([]refEvent(nil), ref...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		for ; n > 0; n-- {
			at, _, arg, ok := h.popMin()
			if !ok {
				t.Fatalf("heap drained early at pop %d", popped)
			}
			if at != want[popped].at || arg != want[popped].arg {
				t.Fatalf("pop %d: typed heap gave (%v,%d), stable sort gives (%v,%d)",
					popped, at, arg, want[popped].at, want[popped].arg)
			}
			popped++
			// Mid-run injection: a tie at the current instant and a later event.
			if r.Intn(4) == 0 && len(ref) < 1000 {
				push(at)
				push(at + float64(r.Intn(3)))
				want = append(want[:0:0], ref...)
				sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
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
		at, _, arg, _ := h.popMin()
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
	_, _, arg, _ := h.popMin()
	if arg != 10 {
		t.Fatalf("after reset: got %d want 10", arg)
	}
}

// BenchmarkEventHeap measures the steady-state push/pop cycle; compare
// BenchmarkContainerHeapBaseline on the same workload shape.
func BenchmarkEventHeap(b *testing.B) {
	b.ReportAllocs()
	h := newEventHeap(1024)
	r := rng.New(5)
	for i := int32(0); i < 1024; i++ {
		h.push(r.Float64()*100, 0, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at, _, arg, _ := h.popMin()
		h.push(at+r.Float64()*10, 0, arg)
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
