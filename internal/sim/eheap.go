package sim

// eventHeap is a binary min-heap of simulation events, built for the
// allocation-free Monte-Carlo hot loop. Heap nodes carry their sort key
// (at, seq) inline, so sifting compares contiguous heap memory with no
// arena indirection — at a typical fleet-sized queue the whole heap fits
// in L1 — while event payloads (kind, arg) live in a small arena read only
// at peek. Equal-timestamp events pop in insertion order (seq), the
// tie-break the scenario goldens depend on. A queued event is never moved
// or cancelled (handlers re-check state instead), so the heap keeps no
// index of where an event sits, and a free list recycles arena slots so a
// steady-state push/pop cycle performs zero heap allocations once the
// arena has reached its high-water mark.
type eventHeap struct {
	nodes []heapNode

	// meta is the caller payload arena, kind and arg packed into one word
	// (arg<<8 | kind) so an event costs a single payload load/store.
	meta []uint64
	free []int32 // recycled arena slots
	next uint64  // seq counter
}

// heapNode packs the sort key into 16 bytes: the seq counter occupies the
// high bits of key and the arena id the low idBits, so comparing key
// compares seq (ids only disambiguate seq ties, which cannot happen), and
// a fleet-sized heap stays L1-resident.
type heapNode struct {
	at  float64
	key uint64 // seq<<idBits | id
}

// idBits bounds live events at 16M — far above any fleet size — while
// leaving 2^40 seq values per trial.
const idBits = 24

func (n heapNode) id() int32 { return int32(n.key & (1<<idBits - 1)) }

func packMeta(kind int8, arg int32) uint64 {
	return uint64(uint32(arg))<<8 | uint64(uint8(kind))
}

func unpackMeta(m uint64) (kind int8, arg int32) {
	return int8(uint8(m)), int32(uint32(m >> 8))
}

func (a heapNode) before(b heapNode) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.key < b.key
}

// newEventHeap returns an empty heap with room for capHint events.
func newEventHeap(capHint int) *eventHeap {
	if capHint < 16 {
		capHint = 16
	}
	return &eventHeap{
		nodes: make([]heapNode, 0, capHint),
		meta:  make([]uint64, 0, capHint),
		free:  make([]int32, 0, capHint),
	}
}

func (h *eventHeap) len() int { return len(h.nodes) }

// alloc grabs an arena slot from the free list, growing the arena only
// when the live-event high-water mark rises.
func (h *eventHeap) alloc() int32 {
	if n := len(h.free); n > 0 {
		id := h.free[n-1]
		h.free = h.free[:n-1]
		return id
	}
	id := int32(len(h.meta))
	h.meta = append(h.meta, 0)
	return id
}

// push schedules an event.
func (h *eventHeap) push(at float64, kind int8, arg int32) {
	id := h.alloc()
	h.meta[id] = packMeta(kind, arg)
	h.nodes = append(h.nodes, heapNode{at: at, key: h.next<<idBits | uint64(id)})
	h.next++
	h.up(len(h.nodes) - 1)
}

// peekMin returns the earliest event without removing it.
func (h *eventHeap) peekMin() (at float64, kind int8, arg int32, ok bool) {
	if len(h.nodes) == 0 {
		return 0, 0, 0, false
	}
	root := h.nodes[0]
	kind, arg = unpackMeta(h.meta[root.id()])
	return root.at, kind, arg, true
}

// dropMin removes the earliest event (the peekMin companion) and recycles
// its arena slot. Must not be called on an empty heap.
func (h *eventHeap) dropMin() {
	last := len(h.nodes) - 1
	h.free = append(h.free, h.nodes[0].id())
	h.nodes[0] = h.nodes[last]
	h.nodes = h.nodes[:last]
	if last > 0 {
		h.down(0)
	}
}

// replaceTop replaces the earliest event with a new one in a single sift,
// reusing the root's arena slot. This fuses the Monte-Carlo loop's
// dominant pop-completion/push-next-completion cycle: one descent instead
// of a removal sift plus an insertion sift plus free-list churn. The new
// event takes a fresh seq, exactly as if it had been pushed after the
// pop. Must not be called on an empty heap.
func (h *eventHeap) replaceTop(at float64, kind int8, arg int32) {
	id := h.nodes[0].id()
	h.meta[id] = packMeta(kind, arg)
	h.nodes[0] = heapNode{at: at, key: h.next<<idBits | uint64(id)}
	h.next++
	h.down(0)
}

// up sifts slot i toward the root with the hole technique (one final
// write instead of pairwise swaps).
func (h *eventHeap) up(i int) {
	node := h.nodes[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !node.before(h.nodes[parent]) {
			break
		}
		h.nodes[i] = h.nodes[parent]
		i = parent
	}
	h.nodes[i] = node
}

// down sifts slot i toward the leaves with the bottom-up ("bounce")
// variant: descend the min-child path to a leaf with ONE comparison per
// level (min of the two children, never against the sifted node), then
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
	// Descend: pull the min child up into the hole, unconditionally.
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && nodes[r].before(nodes[l]) {
			m = r
		}
		nodes[i] = nodes[m]
		i = m
	}
	// Ascend from the leaf hole back toward start as far as node belongs.
	for i > start {
		parent := (i - 1) / 2
		if !node.before(nodes[parent]) {
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
	h.meta = h.meta[:0]
	h.free = h.free[:0]
	h.next = 0
}
