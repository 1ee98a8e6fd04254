package sim

import (
	"math"
	"math/bits"
)

// eventHeap is a binary min-heap of simulation events, built for the
// allocation-free Monte-Carlo hot loop. The scenario engine queues every
// event in one; the tail engine queues only its clone spawns there and
// keeps each worker's in-flight completion in an eventTree (below), whose
// nodes take their seqs from the same heap. A node is 16 bytes and
// carries the whole event: its time, as the IEEE bits of a non-negative
// float64, and one key word that packs the insertion seq above the payload,
//
//	key = seq<<32 | arg<<1 | kind
//
// so sifting compares contiguous heap memory, a fleet-sized heap stays in
// L1, and reading an event touches nothing but the root. The bits of a
// non-negative float64 order as the float does, so (at, key) is one
// 128-bit unsigned number and a comparison is the borrow out of its
// subtraction: sift-down picks the min child by adding that borrow to the
// child's index, with no data-dependent branch. Seqs are unique, so
// comparing keys compares seqs: equal-timestamp events pop in insertion
// order, the tie-break the scenario goldens depend on, and the payload
// bits never decide. A queued event is never moved or cancelled (handlers
// re-check state instead), so the heap keeps no index of where an event
// sits, and a push/pop cycle allocates nothing once nodes has reached the
// live-event high-water mark.
//
// The payload is a kind of 0 or 1 and a non-negative int32 arg, and the
// time is non-negative and not NaN (+Inf is allowed; −0 is stored as +0).
// The seq has 32 bits, so a heap numbers at most maxSeq+1 nodes between
// resets, its pushes and the tree's together; node panics past that, and
// on a payload or time outside those bounds, rather than let a field
// spill into its neighbour and the order or the payload go silently
// wrong. The engines refuse, up front, a run or trial that could number
// more, and a service law that could draw NaN.
type eventHeap struct {
	nodes []heapNode
	next  uint64 // seq of the next push
	open  bool   // nodes[0] was popped and awaits a push or the next pop
}

type heapNode struct {
	at  uint64 // math.Float64bits of the event's non-negative time
	key uint64 // seq<<32 | arg<<1 | kind
}

// maxSeq is the last seq a push may take.
const maxSeq = 1<<32 - 1

// before is 1 if a orders before b and 0 otherwise: the borrow out of the
// 128-bit subtraction (a.at, a.key) − (b.at, b.key).
func (a heapNode) before(b heapNode) uint64 {
	_, borrow := bits.Sub64(a.key, b.key, 0)
	_, borrow = bits.Sub64(a.at, b.at, borrow)
	return borrow
}

// newEventHeap returns an empty heap with room for capHint events.
func newEventHeap(capHint int) *eventHeap {
	if capHint < 16 {
		capHint = 16
	}
	return &eventHeap{nodes: make([]heapNode, 0, capHint)}
}

// node builds the next event's node and takes its seq. Clearing the sign
// bit stores −0 as +0, the only time that passes the check with it set.
func (h *eventHeap) node(at float64, kind int8, arg int32) heapNode {
	if h.next > maxSeq || uint8(kind) > 1 || arg < 0 || !(at >= 0) {
		panic("sim: event does not pack: past 2^32 pushes since the last reset, or a kind other than 0 and 1, or a negative arg, or a NaN or negative time")
	}
	n := heapNode{at: math.Float64bits(at) &^ (1 << 63), key: h.next<<32 | uint64(arg)<<1 | uint64(kind)}
	h.next++
	return n
}

// push schedules an event. Into an open root slot (see pop) it goes with
// one sift down, which fuses the scenario engine's dominant cycle, a
// completion popped and its worker's next completion pushed, into a
// single descent; otherwise it is appended and sifted up. Either way it
// takes the next seq, so pop order is the total (time, seq) order
// whatever the layout.
func (h *eventHeap) push(at float64, kind int8, arg int32) {
	n := h.node(at, kind, arg)
	if h.open {
		h.open = false
		h.nodes[0] = n
		h.down(0)
		return
	}
	h.nodes = append(h.nodes, n)
	h.up(len(h.nodes) - 1)
}

// pop returns the earliest event, ok=false on an empty heap. The event's
// root slot stays open until the next push fills it or the next pop
// closes it.
func (h *eventHeap) pop() (at float64, kind int8, arg int32, ok bool) {
	if h.open {
		h.close()
	}
	if len(h.nodes) == 0 {
		return 0, 0, 0, false
	}
	h.open = true
	at, kind, arg = h.nodes[0].event()
	return at, kind, arg, true
}

// event unpacks a node's time and payload.
func (n heapNode) event() (at float64, kind int8, arg int32) {
	return math.Float64frombits(n.at), int8(n.key & 1), int32(uint32(n.key) >> 1)
}

// close removes the open root slot by moving the last event into it.
func (h *eventHeap) close() {
	h.open = false
	last := len(h.nodes) - 1
	h.nodes[0] = h.nodes[last]
	h.nodes = h.nodes[:last]
	if last > 0 {
		h.down(0)
	}
}

// up sifts slot i toward the root with the hole technique (one final
// write instead of pairwise swaps).
func (h *eventHeap) up(i int) {
	node := h.nodes[i]
	for i > 0 {
		parent := (i - 1) / 2
		if node.before(h.nodes[parent]) == 0 {
			break
		}
		h.nodes[i] = h.nodes[parent]
		i = parent
	}
	h.nodes[i] = node
}

// down sifts slot i toward the leaves with the bottom-up ("bounce")
// variant: descend the min-child path to a leaf with ONE comparison per
// level (min of the two children, never against the sifted node, taken
// as the right child's borrow added to the left child's index), then
// sift the node up from that leaf. The node being sifted came from the
// heap bottom on the pop path, so it nearly always belongs at a leaf and
// the ascent terminates immediately — halving the comparisons of the
// classic two-compare descent, which dominates the Monte-Carlo hot loop.
// It works on a local slice header so the sift loop — the single hottest
// loop in the Monte-Carlo engine — keeps everything in registers.
func (h *eventHeap) down(i int) {
	nodes := h.nodes
	n := len(nodes)
	node := nodes[i]
	start := i
	// Descend: pull the min child up into the hole, unconditionally. Only
	// the last level can hold a lone left child.
	for {
		l := 2*i + 1
		if l+1 >= n {
			if l < n {
				nodes[i] = nodes[l]
				i = l
			}
			break
		}
		m := l + int(nodes[l+1].before(nodes[l]))
		nodes[i] = nodes[m]
		i = m
	}
	// Ascend from the leaf hole back toward start as far as node belongs.
	for i > start {
		parent := (i - 1) / 2
		if node.before(nodes[parent]) == 0 {
			break
		}
		nodes[i] = nodes[parent]
		i = parent
	}
	nodes[i] = node
}

// reset empties the heap for reuse without releasing memory.
func (h *eventHeap) reset() {
	h.nodes = h.nodes[:0]
	h.next = 0
	h.open = false
}

// eventTree is a winner tree over a fixed set of P slots, each holding at
// most one event: the tail engine's workers, each with at most one
// completion in flight. Leaves sit at nodes[P:2P], so any P works, and
// every internal node i in [1, P) holds the earlier of nodes[2i] and
// nodes[2i+1], so nodes[1] is the earliest event of all: 32 B per slot.
// A leaf holds the same 16-byte node as the heap, its seq taken from the
// heap's counter (eventHeap.node), so one counter numbers every event and
// pop, over the tree and the heap together, keeps the total (time, seq)
// order. An empty slot holds idle, whose all-ones at no real node reaches
// (a node's at has its sign bit clear), so it orders after every event.
//
// Where the heap's sift descends along the comparisons it makes, set
// replays a slot's fixed leaf-to-root path: each level loads the sibling,
// whose address no comparison decides, and takes the earlier of it and the
// running winner with the branch-free 128-bit min.
type eventTree struct {
	nodes []heapNode
}

// idle marks an empty slot.
var idle = heapNode{at: math.MaxUint64, key: math.MaxUint64}

// newEventTree returns a tree of p empty slots, p >= 1.
func newEventTree(p int) *eventTree {
	t := &eventTree{nodes: make([]heapNode, 2*p)}
	t.reset()
	return t
}

// set puts event n in slot w, replacing what it held, and replays w's path
// to the root.
func (t *eventTree) set(w int, n heapNode) {
	nodes := t.nodes
	i := len(nodes)/2 + w
	nodes[i] = n
	for ; i > 1; i >>= 1 {
		s := nodes[i^1]
		mask := -s.before(n)
		n.at ^= (n.at ^ s.at) & mask
		n.key ^= (n.key ^ s.key) & mask
		nodes[i>>1] = n
	}
}

// clear empties slot w.
func (t *eventTree) clear(w int) { t.set(w, idle) }

// pop returns the earlier of the tree's earliest event and the heap's, by
// before, ok=false when the heap is empty and every slot idle. It first
// closes the heap's open root slot; a heap pop opens it again, as
// eventHeap.pop does. A tree pop leaves the event in its slot: the caller
// sets or clears that slot before the next pop.
func (t *eventTree) pop(h *eventHeap) (at float64, kind int8, arg int32, ok bool) {
	if h.open {
		h.close()
	}
	n := t.nodes[1]
	if len(h.nodes) > 0 && h.nodes[0].before(n) == 1 {
		n = h.nodes[0]
		h.open = true
	} else if n == idle {
		return 0, 0, 0, false
	}
	at, kind, arg = n.event()
	return at, kind, arg, true
}

// reset empties every slot.
func (t *eventTree) reset() {
	for i := range t.nodes {
		t.nodes[i] = idle
	}
}
