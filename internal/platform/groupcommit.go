package platform

import (
	"bytes"
	"errors"
	"sync"
	"time"
)

// bufPool recycles journal encode buffers across batches, commit windows,
// and supervisors — the frame-assembly allocation on the result hot path.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// commitReq is one handler's result batch awaiting durability. done is
// buffered so the committer never blocks on a requester.
type commitReq struct {
	recs []journalRecord
	done chan error
}

// journalCommitter is the one path result records take to the journal: a
// single goroutine that drains every commit request queued while the
// previous window's write+fsync was in flight, encodes them into one
// contiguous buffer, writes it with one Write call (so a crash can tear
// only the buffer's tail — the damage replay already tolerates), fsyncs
// once (JournalSync mode), and only then releases every requester.
// Ack-after-fsync therefore holds per window: a result is acked only after
// the fsync covering its record returned. The window is adaptive with zero
// added latency — an uncontended request commits alone immediately;
// windows grow exactly when fsync is the bottleneck.
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

	mu     sync.Mutex // leaf: taken under audit.mu, never above anything
	queue  []commitReq
	closed bool

	wake chan struct{} // buffered(1): the queue went non-empty
	quit chan struct{}
	idle chan struct{} // closed when the loop has drained and exited
	once sync.Once
}

var errCommitterClosed = errors.New("platform: journal committer closed")

func newJournalCommitter(s *Supervisor) *journalCommitter {
	c := &journalCommitter{
		s:    s,
		wake: make(chan struct{}, 1),
		quit: make(chan struct{}),
		idle: make(chan struct{}),
	}
	go c.loop()
	return c
}

// enqueue queues recs for the next commit window and returns at once; the
// returned channel yields the window's outcome once it is durable (or its
// write failed). recs must stay untouched until then.
func (c *journalCommitter) enqueue(recs []journalRecord) <-chan error {
	done := make(chan error, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		done <- errCommitterClosed
		return done
	}
	c.queue = append(c.queue, commitReq{recs: recs, done: done})
	c.mu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default:
	}
	return done
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
		c.closed = final
		c.mu.Unlock()
		if len(batch) > 0 {
			c.commitWindow(batch)
		}
		if final {
			return
		}
	}
}

// commitWindow makes one window durable and releases its requesters.
func (c *journalCommitter) commitWindow(batch []commitReq) {
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
	}
	for _, req := range batch {
		req.done <- err
	}
	// Snapshot trigger, after the requesters are released: takeSnapshot
	// takes lease.mu → audit.mu, which no requester waits under, and
	// running it here keeps the committer single-threaded with respect to
	// its own journal writes.
	if err == nil {
		s.noteJournaled(n)
	}
}
