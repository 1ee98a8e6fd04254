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
type journalCommitter struct {
	s    *Supervisor
	reqs chan commitReq
	quit chan struct{}
	idle chan struct{} // closed when the loop has drained and exited
	once sync.Once
}

var errCommitterClosed = errors.New("platform: journal committer closed")

func newJournalCommitter(s *Supervisor) *journalCommitter {
	c := &journalCommitter{
		s:    s,
		reqs: make(chan commitReq, 256),
		quit: make(chan struct{}),
		idle: make(chan struct{}),
	}
	go c.loop()
	return c
}

// commit submits recs and blocks until the commit window covering them is
// durable (or its write failed). The caller may reuse recs's backing
// array after commit returns — the committer is done with it.
func (c *journalCommitter) commit(recs []journalRecord) error {
	req := commitReq{recs: recs, done: make(chan error, 1)}
	select {
	case c.reqs <- req:
	case <-c.quit:
		return errCommitterClosed
	}
	return <-req.done
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
		select {
		case req := <-c.reqs:
			batch = c.gather(append(batch[:0], req))
			c.commitWindow(batch)
		case <-c.quit:
			// Drain what the handlers already queued; supervisor teardown
			// only closes the committer after every connection goroutine
			// has exited, so nothing new can arrive.
			if batch = c.gather(batch[:0]); len(batch) > 0 {
				c.commitWindow(batch)
			}
			return
		}
	}
}

// gather extends the window with every request already queued — no timer,
// no configured window size: the window is exactly the set of batches
// that arrived while the previous write+fsync was in flight.
func (c *journalCommitter) gather(batch []commitReq) []commitReq {
	for {
		select {
		case req := <-c.reqs:
			batch = append(batch, req)
		default:
			return batch
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
	// takes lease.mu → audit.mu, which no commit() caller holds, and
	// running it here keeps the committer single-threaded with respect to
	// its own journal writes.
	if err == nil {
		s.noteJournaled(n)
	}
}
