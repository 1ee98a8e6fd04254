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

// commitReq is one queued journal write: a submission's result records, or
// one plan revision (rev set, recs empty). at is when a submission's
// handler began, the start of its redundancy_commit_wait_seconds sample.
type commitReq struct {
	recs []journalRecord
	rev  *revisionRecord
	at   time.Time
}

// journalCommitter is the journal's only writer: a single goroutine that
// drains every commit request queued while the previous window's
// write+fsync was in flight, encodes them into one contiguous buffer,
// writes it with one Write call (so a crash can tear only the buffer's
// tail — the damage replay already tolerates), fsyncs once (JournalSync
// mode), and only then publishes the window as durable. It also takes the
// snapshots that compact the journal, between windows. Ack-after-fsync
// therefore holds per window: a result's ack is produced only after
// durable has passed its request's number, which happens only after the
// fsync covering its records returned.
//
// Nobody waits for a commit on the lease path. A handler queues its records
// and goes on to its connection's next request; the ack follows when the
// window is down (deferredAck, conn.go). A connection may run up to
// maxDeferredAcks submissions ahead of the disk, so a window carries what
// every connection produced during the previous fsync: the window has no
// timer and no configured size, an idle journal commits a lone request at
// once, and a busy one amortizes each fsync over up to maxDeferredAcks
// submissions per connection. adaptTick queues its revision the same way
// and does not wait either.
//
// Requests are written in the order they were enqueued, and both kinds are
// enqueued under audit.mu, so journal order is the order the live
// supervisor applied them: replay feeds the verifier the sequence the live
// run fed it, a revision lands ahead of every result that depends on it,
// and a restored supervisor equals the live one however many connections
// raced. enqueue therefore must never block: the queue is a slice under
// its own leaf mutex, not a bounded channel (the committer's snapshot
// takes audit.mu, so a handler blocked on a full channel under audit.mu
// would deadlock it).
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

	// lines counts the records in the journal file, what a compaction
	// replaces; since counts those written since the last snapshot. Only
	// the loop goroutine touches them.
	lines, since int
	// newline is set while the journal ends in a replayed record without
	// its newline (replayStats.unterminated): the first window writes one
	// before its records.
	newline bool

	wake chan struct{} // buffered(1): the queue went non-empty
	quit chan struct{}
	idle chan struct{} // closed when the loop has drained and exited
	once sync.Once
}

func newJournalCommitter(s *Supervisor) *journalCommitter {
	c := &journalCommitter{
		s:       s,
		lines:   s.replayed.lines,
		newline: s.replayed.unterminated,
		tick:    make(chan struct{}),
		wake:    make(chan struct{}, 1),
		quit:    make(chan struct{}),
		idle:    make(chan struct{}),
	}
	go c.loop()
	return c
}

// enqueue queues req for the next commit window and returns at once with
// the request's number: its records are durable once c.durable reaches it
// (see wait). req's records must stay untouched until then. ok is false
// when the committer has been closed and the request was not taken.
func (c *journalCommitter) enqueue(req commitReq) (seq uint64, ok bool) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, false
	}
	c.queue = append(c.queue, req)
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
// number of the window's last request. Revision lines are encoded in the
// same pass as the result lines around them; the result metrics count
// result records only.
func (c *journalCommitter) commitWindow(batch []commitReq, upto uint64) {
	s := c.s
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if c.newline {
		buf.WriteByte('\n')
	}
	results, lines := 0, 0
	var err error
	for i := range batch {
		req := &batch[i]
		if req.rev != nil {
			err = encodeJournalRevision(buf, req.rev)
			lines++
		} else {
			err = encodeJournalRecords(buf, req.recs)
			results += len(req.recs)
			lines += len(req.recs)
		}
		if err != nil {
			break
		}
	}
	if err == nil {
		_, err = s.cfg.Journal.Write(buf.Bytes())
	}
	bufPool.Put(buf)
	if err == nil {
		c.newline = false
		c.lines += lines
		s.metrics.journalRecords.Add(uint64(results))
		if s.cfg.JournalSync {
			s.syncJournal()
		}
		s.metrics.journalGroupCommits.Inc()
		s.metrics.journalCommitBatch.Observe(float64(results))
		now := time.Now()
		for i := range batch {
			if batch[i].rev == nil {
				s.metrics.commitWait.Observe(now.Sub(batch[i].at).Seconds())
			}
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
	// lease.mu → audit.mu, which nothing waits for a commit under.
	if err == nil {
		c.noteJournaled(lines)
	}
}

// noteJournaled advances the snapshot trigger by n freshly written records
// and takes a snapshot when the configured interval is crossed. Only the
// committer's loop calls it, holding no lock.
func (c *journalCommitter) noteJournaled(n int) {
	interval := c.s.cfg.SnapshotInterval
	if interval <= 0 {
		return
	}
	if c.since += n; c.since < interval {
		return
	}
	c.since = 0
	c.takeSnapshot()
}

// takeSnapshot captures the supervisor's state (captureSnapshot) and makes
// the capture the whole journal. Doing the encode and the ReplaceWith (temp
// write, two fsyncs, rename) outside the capture's locks is safe because
// the committer is the journal's only writer and is the goroutine running
// this. A record enqueued after the capture — applied after it — cannot be
// written before takeSnapshot returns, so it lands after the snapshot line.
// A record enqueued before the capture but not yet written lands there too,
// and replay skips it as covered (a result by (task, copy), a revision by
// seq). Everything ReplaceWith discards was written before the capture, so
// the snapshot covers it.
func (c *journalCommitter) takeSnapshot() {
	s := c.s
	rec := s.captureSnapshot()
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	buf.Reset()
	if err := appendJournalSnapshot(buf, rec); err != nil {
		s.logf("snapshot: encode failed: %v", err)
		return
	}
	// ReplaceWith fsyncs internally; the old records are gone only once the
	// rename is durable.
	if err := s.cfg.Journal.(journalReplacer).ReplaceWith(buf.Bytes()); err != nil {
		s.logf("snapshot: journal replace failed: %v", err)
		return
	}
	compacted := c.lines
	c.lines = 1
	s.metrics.journalSnapshots.Inc()
	s.metrics.journalCompactedRecords.Add(uint64(compacted))
	s.logf("snapshot: %d verdict(s), %d pending result(s), %d revision(s); compacted %d journal record(s)",
		len(rec.Verdicts), len(rec.Pending), len(rec.Revisions), compacted)
}

// syncer is the optional flushing facet of a journal writer (*os.File
// implements it).
type syncer interface{ Sync() error }

// syncJournal fsyncs the journal if its writer supports it. The committer
// calls it after each window's write, and flushJournal once the committer
// has stopped; Sync flushes everything written before the call.
func (s *Supervisor) syncJournal() {
	sy, ok := s.cfg.Journal.(syncer)
	if !ok {
		return
	}
	if err := sy.Sync(); err != nil {
		s.logf("journal sync failed: %v", err)
		return
	}
	s.metrics.journalSyncs.Inc()
}

// flushJournal ends the journal's write pipeline at teardown: the
// committer (when started) is drained and stopped, then a final fsync
// covers anything still in the page cache.
func (s *Supervisor) flushJournal() {
	if s.committer != nil {
		s.committer.close()
	}
	s.syncJournal() // a nil Journal is no syncer
}
