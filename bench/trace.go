package main

import (
	"encoding/json"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"redundancy"
)

// span is one timed interval at a layer boundary, recorded from bench/
// around the call into the layer. Start and End are nanoseconds since the
// tracer was created; Parent indexes the span that caused it (-1 for a
// round's root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Round  int    `json:"round"`
}

type spanTotal struct {
	Count int64 `json:"count"`
	Nanos int64 `json:"total_ns"`
}

// maxLeafSpans caps the per-operation spans (one per socket call, lease or
// journal write) kept in memory: a lease-rtt round makes several hundred
// thousand of them. Past the cap a leaf still counts in the per-name
// totals, and the trace file says how many were dropped.
const maxLeafSpans = 50_000

// tracer keeps spans in memory for the traced rounds of one workload and
// writes them out when the workload ends.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	leaves  int
	dropped int64
	totals  map[string]*spanTotal
	round   int
	// leafParent is the open span per-operation leaves hang under (the
	// round's serve span).
	leafParent int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), totals: map[string]*spanTotal{}, leafParent: -1}
}

// begin opens a structural span (round, setup, serve, replay) and returns
// its index for end and for use as a parent. Every method is a no-op on a
// nil tracer, which is what an untraced round passes.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Round: t.round})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = int64(time.Since(t.epoch))
	t.addTotal(s.Name, s.End-s.Start)
	return time.Duration(s.End - s.Start)
}

func (t *tracer) addTotal(name string, ns int64) {
	tot := t.totals[name]
	if tot == nil {
		tot = &spanTotal{}
		t.totals[name] = tot
	}
	tot.Count++
	tot.Nanos += ns
}

// leaf records one finished per-operation span under the open serve span.
func (t *tracer) leaf(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addTotal(name, int64(d))
	if t.leaves >= maxLeafSpans {
		t.dropped++
		return
	}
	t.leaves++
	s := int64(start.Sub(t.epoch))
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + int64(d), Parent: t.leafParent, Round: t.round})
}

func (t *tracer) setRound(r int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.round = r
	t.mu.Unlock()
}

func (t *tracer) setLeafParent(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.leafParent = id
	t.mu.Unlock()
}

func (t *tracer) writeFile(path, workload string, seed uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := struct {
		Workload      string                `json:"workload"`
		Seed          uint64                `json:"seed"`
		LeafSpanCap   int                   `json:"leaf_span_cap"`
		LeavesDropped int64                 `json:"leaves_dropped"`
		Totals        map[string]*spanTotal `json:"totals"`
		Spans         []span                `json:"spans"`
	}{workload, seed, maxLeafSpans, t.dropped, t.totals, t.spans}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// netCounters counts the Read and Write calls on one side of the sockets.
type netCounters struct {
	reads, writes atomic.Int64
}

// tracedConn wraps one socket end: every Read and Write is counted and
// becomes a net.read_wait or net.write span. Read time is mostly waiting
// for the peer, which is why the span is named for the wait.
type tracedConn struct {
	net.Conn
	tr  *tracer
	ctr *netCounters
}

func (c *tracedConn) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Read(p)
	c.tr.leaf("net.read_wait", start, time.Since(start))
	c.ctr.reads.Add(1)
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	c.tr.leaf("net.write", start, time.Since(start))
	c.ctr.writes.Add(1)
	return n, err
}

type tracedListener struct {
	net.Listener
	tr  *tracer
	ctr *netCounters
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, tr: l.tr, ctr: l.ctr}, nil
}

// tracedJournal wraps the journal file's Write and Sync, the seam
// SupervisorConfig.Journal exposes. It keeps the sequence of calls so the
// journal replay can make the same ones on a quiet process.
type tracedJournal struct {
	inner *redundancy.JournalFile
	tr    *tracer

	mu      sync.Mutex
	bytes   int64
	writeNs int64
	syncs   []time.Duration
	ops     []int // a Write's length, or journalSyncOp
}

const journalSyncOp = -1

func (j *tracedJournal) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := j.inner.Write(p)
	d := time.Since(start)
	j.tr.leaf("journal.write", start, d)
	j.mu.Lock()
	j.bytes += int64(n)
	j.writeNs += int64(d)
	j.ops = append(j.ops, len(p))
	j.mu.Unlock()
	return n, err
}

func (j *tracedJournal) Sync() error {
	start := time.Now()
	err := j.inner.Sync()
	d := time.Since(start)
	j.tr.leaf("journal.sync", start, d)
	j.mu.Lock()
	j.syncs = append(j.syncs, d)
	j.ops = append(j.ops, journalSyncOp)
	j.mu.Unlock()
	return err
}
