package platform

import (
	"bytes"
	"sync"
	"sync/atomic"
	"time"
)

// bufPool recycles journal encode buffers across batches, commit windows,
// and supervisors — the frame-assembly allocation on the result hot path.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// commitReq is one submission's records awaiting durability; at is when its
// handler began, the start of its redundancy_commit_wait_seconds sample.
type commitReq struct {
	recs []journalRecord
	at   time.Time
}

// journalCommitter is the one path result records take to the journal: a
// single goroutine that drains every commit request queued while the
// previous window's write+fsync was in flight, encodes them into one
// contiguous buffer, writes it with one Write call (so a crash can tear
// only the buffer's tail — the damage replay already tolerates), fsyncs
// once (JournalSync mode), and only then publishes the window as durable.
// Ack-after-fsync therefore holds per window: a result's ack is produced
// only after durable has passed its request's number, which happens only
// after the fsync covering its records returned.
//
// Nobody waits for a commit on the lease path. A handler queues its records
// and goes on to its connection's next request; the ack follows when the
// window is down (deferredAck, server.go). A connection may run up to
// maxDeferredAcks submissions ahead of the disk, so a window carries what
// every connection produced during the previous fsync: the window has no
// timer and no configured size, an idle journal commits a lone request at
// once, and a busy one amortizes each fsync over up to maxDeferredAcks
// submissions per connection.
//
// Requests are written in the order they were enqueued, and handlers
// enqueue while still holding audit.mu, so journal order is adjudication
// order: replay feeds the verifier the sequence the live run fed it, and a
// restored supervisor equals the live one however many connections raced.
// enqueue therefore must never block: the queue is a slice under its own
// leaf mutex, not a bounded channel (the committer's snapshot trigger takes
// audit.mu, so a handler blocked on a full channel under audit.mu would
// deadlock it).
type journalCommitter struct {
	s *Supervisor

	mu       sync.Mutex // leaf: taken under audit.mu, never above anything
	queue    []commitReq
	enqueued uint64 // requests accepted so far; the newest one's number
	closed   bool
	// tick is closed, and replaced, each time durable advances: what a
	// waiter blocks on between two looks at durable.
	tick chan struct{}

	// durable is the number of the newest request whose window is down:
	// every request numbered at or below it has been written and fsynced
	// (or its write failed and was logged; an ack never waits forever).
	durable atomic.Uint64

	wake chan struct{} // buffered(1): the queue went non-empty
	quit chan struct{}
	idle chan struct{} // closed when the loop has drained and exited
	once sync.Once
}

func newJournalCommitter(s *Supervisor) *journalCommitter {
	c := &journalCommitter{
		s:    s,
		tick: make(chan struct{}),
		wake: make(chan struct{}, 1),
		quit: make(chan struct{}),
		idle: make(chan struct{}),
	}
	go c.loop()
	return c
}

// enqueue queues recs for the next commit window and returns at once with
// the request's number: the records are durable once c.durable reaches it
// (see wait). recs must stay untouched until then. ok is false when the
// committer has been closed and the records were not taken.
func (c *journalCommitter) enqueue(recs []journalRecord, at time.Time) (seq uint64, ok bool) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, false
	}
	c.queue = append(c.queue, commitReq{recs: recs, at: at})
	c.enqueued++
	seq = c.enqueued
	c.mu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default:
	}
	return seq, true
}

// wait blocks until request seq is durable and reports true, or until gone
// is closed and reports false (a nil gone never fires).
func (c *journalCommitter) wait(seq uint64, gone <-chan struct{}) bool {
	for c.durable.Load() < seq {
		c.mu.Lock()
		tick := c.tick
		c.mu.Unlock()
		// durable is stored before tick is replaced: holding the
		// replacement, this second look sees the new durable; holding the
		// old tick, its close wakes us.
		if c.durable.Load() >= seq {
			break
		}
		select {
		case <-tick:
		case <-gone:
			return false
		}
	}
	return true
}

// close stops the committer after draining every queued request. Safe to
// call more than once (Close after Shutdown is common in tests).
func (c *journalCommitter) close() {
	c.once.Do(func() { close(c.quit) })
	<-c.idle
}

func (c *journalCommitter) loop() {
	defer close(c.idle)
	batch := make([]commitReq, 0, 64)
	for {
		final := false
		select {
		case <-c.wake:
		case <-c.quit:
			final = true
		}
		// The window is exactly the requests that arrived while the
		// previous write+fsync was in flight — no timer, no configured size.
		c.mu.Lock()
		clear(batch) // drop the last window's references before it is reused
		batch, c.queue = c.queue, batch[:0]
		upto := c.enqueued
		c.closed = final
		c.mu.Unlock()
		if len(batch) > 0 {
			c.commitWindow(batch, upto)
		}
		if final {
			return
		}
	}
}

// commitWindow makes one window durable and publishes it: upto is the
// number of the window's last request.
func (c *journalCommitter) commitWindow(batch []commitReq, upto uint64) {
	s := c.s
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	n := 0
	var err error
	for _, req := range batch {
		if err = encodeJournalRecords(buf, req.recs); err != nil {
			break
		}
		n += len(req.recs)
	}
	if err == nil {
		s.jnlMu.Lock()
		_, err = s.cfg.Journal.Write(buf.Bytes())
		if err == nil {
			s.jnlLines += int64(n)
		}
		s.jnlMu.Unlock()
	}
	bufPool.Put(buf)
	if err == nil {
		s.metrics.journalRecords.Add(uint64(n))
		if s.cfg.JournalSync {
			s.syncJournal()
		}
		if s.cfg.CommitLatency > 0 {
			// Modeled device latency, paid once per window: the window
			// amortizes it across its records exactly as it amortizes a
			// real fsync.
			time.Sleep(s.cfg.CommitLatency)
		}
		s.metrics.journalGroupCommits.Inc()
		s.metrics.journalCommitBatch.Observe(float64(n))
		now := time.Now()
		for _, req := range batch {
			s.metrics.commitWait.Observe(now.Sub(req.at).Seconds())
		}
	} else {
		// The acks still go out: a journal write failure costs replay, not
		// liveness.
		s.logf("journal write failed: %v", err)
	}
	c.durable.Store(upto)
	c.mu.Lock()
	close(c.tick)
	c.tick = make(chan struct{})
	c.mu.Unlock()
	// Snapshot trigger, after the window is published: takeSnapshot takes
	// lease.mu → audit.mu, which nothing waits for a commit under, and
	// running it here keeps the committer single-threaded with respect to
	// its own journal writes.
	if err == nil {
		s.noteJournaled(n)
	}
}
