// Package platform is a runnable miniature volunteer-computing platform in
// the mold the paper assumes: a supervisor process distributes assignments
// produced by a redundancy plan to worker processes over TCP, collects
// results, certifies them by redundancy, checks ringers against
// precomputed values, and blacklists implicated participants.
//
// The default wire protocol is newline-delimited JSON — one object per
// line in each direction — chosen so a worker can be driven by hand with
// netcat while debugging. Workers may negotiate the length-prefixed binary
// framing (binproto.go) at registration with the proto=bin capability;
// PROTOCOL.md specifies both codecs byte for byte. The unit of work
// ("assignment": code + data, §2) is a named work function plus a payload;
// workers execute the computation for real.
package platform

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
)

// Message is the single envelope type exchanged in both directions; Type
// selects which fields are meaningful. The zero Message is not a valid
// frame (its Type is empty); unset fields marshal away under omitempty.
type Message struct {
	// Type is one of the Msg* constants and selects the meaningful fields.
	Type string `json:"type"`

	// Name is the participant's self-reported display name (register);
	// it need not be unique and an empty name is accepted.
	Name string `json:"name,omitempty"`
	// ParticipantID is the supervisor-assigned identity, 0-based and
	// unique per run (registered, request_work, result). 0 is a valid ID,
	// not an absent one.
	ParticipantID int `json:"participant_id,omitempty"`
	// Resume marks a register that re-attaches an existing identity after
	// a reconnect instead of minting a new participant; ParticipantID and
	// Token carry the identity being resumed (register).
	Resume bool `json:"resume,omitempty"`
	// Token authenticates identity resumption: minted by the supervisor
	// at registration, echoed in registered, required on a Resume
	// register. Without it any client could hijack a participant — and
	// its credit — by guessing a small ID (registered, register).
	Token uint64 `json:"token,omitempty"`
	// Proto negotiates the wire codec. A register carrying ProtoBinary
	// asks to switch to the length-prefixed binary framing; a registered
	// reply echoing it confirms, and both sides switch immediately after
	// that exchange. Absent or unrecognized values keep newline-delimited
	// JSON, so old workers and supervisors interoperate unchanged
	// (register, registered).
	Proto string `json:"proto,omitempty"`

	// TaskID numbers the task, 0-based; ringer tasks continue after the
	// last real task (work, result).
	TaskID int `json:"task_id,omitempty"`
	// Copy indexes this assignment among the task's copies,
	// 0..multiplicity-1 (work, result).
	Copy int `json:"copy,omitempty"`
	// Kind names the registered work function to execute (work).
	Kind string `json:"kind,omitempty"`
	// Seed is the work function's input, derived per task by TaskSeed
	// (work).
	Seed uint64 `json:"seed,omitempty"`
	// Iters is the per-assignment work amount, in work-function
	// iterations (work).
	Iters int `json:"iters,omitempty"`
	// Ringer is never sent to workers (a labeled ringer would be
	// pointless); it exists for tests that splice Messages directly.
	Ringer bool `json:"ringer,omitempty"`
	// Value is the computed result, a work-function-defined 64-bit word —
	// possibly float64 bits, see SupervisorConfig.ResultDigits (result).
	Value uint64 `json:"value,omitempty"`
	// Wait is how long to back off before the next request_work, in
	// seconds (no_work). 0 means retry immediately.
	Wait float64 `json:"wait_seconds,omitempty"`

	// Error carries the human-readable refusal reason (error).
	Error string `json:"error,omitempty"`
	// Reason machine-codes an error reply — one of the Reason* constants —
	// so clients can tell fatal refusals (blacklisted) from races that a
	// reconnect resolves (error).
	Reason string `json:"reason,omitempty"`

	// Batch is the number of assignments requested in one lease; the
	// supervisor caps it at SupervisorConfig.MaxBatch (get_work).
	Batch int `json:"batch,omitempty"`
	// Work carries the assignments of a batch lease; the envelope's Kind
	// and Iters apply to every item (work_batch).
	Work []WorkItem `json:"work,omitempty"`
	// Results carries the computed values of a lease (result_batch).
	Results []ResultItem `json:"results,omitempty"`
	// Acks carries per-result outcomes, in submission order (batch_ack).
	Acks []ResultAck `json:"acks,omitempty"`

	// Epoch is the shard-map epoch of a sharded cluster: supervisors
	// stamp it on every reply, and a worker seeing it exceed the epoch of
	// its shard map knows the cluster rebalanced (a shard died or
	// returned) and re-resolves its routing before the next lease.
	// Absent (0) on unsharded supervisors and on a cluster until its
	// first membership change, so their wire format is byte-identical to
	// previous releases (all replies).
	Epoch uint64 `json:"epoch,omitempty"`
}

// WorkItem is one assignment inside a work_batch lease. Kind and Iters are
// identical for every assignment of a run, so they ride once on the
// envelope instead of once per item.
type WorkItem struct {
	TaskID int    `json:"task_id"`
	Copy   int    `json:"copy"`
	Seed   uint64 `json:"seed"`
}

// ResultItem is one computed result inside a result_batch.
type ResultItem struct {
	TaskID int    `json:"task_id"`
	Copy   int    `json:"copy"`
	Value  uint64 `json:"value"`
}

// ResultAck is the per-result outcome inside a batch_ack. OK plays the
// role of a single-result MsgAck; a false OK carries the Reason and Error
// a single-result MsgError reply would.
type ResultAck struct {
	TaskID int    `json:"task_id"`
	Copy   int    `json:"copy"`
	OK     bool   `json:"ok"`
	Reason string `json:"reason,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Machine-readable refusal reasons carried in MsgError replies. The
// result-rejection reasons double as the label values of the
// redundancy_results_rejected_total metric.
const (
	// ReasonBlacklisted refuses a convicted participant; reconnecting
	// cannot fix it.
	ReasonBlacklisted = "blacklisted"
	// ReasonUnregistered refuses a request naming a participant not
	// registered (or resumed) on this connection.
	ReasonUnregistered = "unregistered"
	// ReasonResumeRefused refuses a resume with an unknown identity or a
	// wrong token (e.g. the supervisor restarted); register afresh.
	ReasonResumeRefused = "resume_refused"
	// ReasonUnassigned rejects a result for work the supervisor has no
	// outstanding record of (already accepted, or reclaimed).
	ReasonUnassigned = "unassigned"
	// ReasonWrongParticipant rejects a result for a copy held by someone
	// else (the copy was reclaimed and re-issued).
	ReasonWrongParticipant = "wrong_participant"
	// ReasonVerification rejects a result the verifier refused.
	ReasonVerification = "verification"
	// ReasonDuplicate rejects the losing side of a speculative race: the
	// copy was deliberately issued twice and the other racer's result was
	// already accepted. Not an error on the worker's part — just wasted
	// duplicate work, counted but never credited.
	ReasonDuplicate = "duplicate"
	// ReasonUnknownType refuses a frame whose type is not part of the
	// protocol (possibly corruption in transit).
	ReasonUnknownType = "unknown_type"
)

// Message types, worker → supervisor.
const (
	// MsgRegister requests an identity; fields: Name — or, with Resume
	// set, re-attaches an existing one; fields: Name, Resume,
	// ParticipantID, Token.
	MsgRegister = "register"
	// MsgRequestWork asks for one assignment; fields: ParticipantID.
	MsgRequestWork = "request_work"
	// MsgResult returns a computed value; fields: ParticipantID, TaskID,
	// Copy, Value.
	MsgResult = "result"
	// MsgGetWork asks for a lease of up to Batch assignments; fields:
	// ParticipantID, Batch. The supervisor caps the grant at its MaxBatch.
	MsgGetWork = "get_work"
	// MsgResultBatch returns the computed values of a lease in one frame;
	// fields: ParticipantID, Results. Credited and journaled atomically.
	MsgResultBatch = "result_batch"
)

// Message types, supervisor → worker.
const (
	// MsgRegistered grants (or re-attaches) an identity; fields:
	// ParticipantID, Token.
	MsgRegistered = "registered"
	// MsgWork carries one assignment; fields: TaskID, Copy, Kind, Seed,
	// Iters.
	MsgWork = "work"
	// MsgNoWork reports that the release policy is holding copies back;
	// retry after Wait seconds.
	MsgNoWork = "no_work"
	// MsgDone reports the computation finished; the worker disconnects.
	MsgDone = "done"
	// MsgAck confirms a result was accepted into verification.
	MsgAck = "ack"
	// MsgError refuses the request; fields: Error.
	MsgError = "error"
	// MsgWorkBatch carries a lease of assignments; fields: Work, Kind,
	// Iters (Kind/Iters apply to every item).
	MsgWorkBatch = "work_batch"
	// MsgBatchAck reports the per-result outcome of a result_batch, in
	// submission order; fields: Acks.
	MsgBatchAck = "batch_ack"
)

// wireVerbs lists every protocol verb in binary-tag order: the binary
// codec's verb tag is the 1-based index into this table (tag 0 carries an
// explicit type string, for messages whose type is not a protocol verb).
// Append only — reordering changes tags on the wire. PROTOCOL.md's verb
// tables are diffed against this slice by the protocol documentation test.
var wireVerbs = []string{
	MsgRegister,    // tag 1
	MsgRequestWork, // tag 2
	MsgResult,      // tag 3
	MsgGetWork,     // tag 4
	MsgResultBatch, // tag 5
	MsgRegistered,  // tag 6
	MsgWork,        // tag 7
	MsgNoWork,      // tag 8
	MsgDone,        // tag 9
	MsgAck,         // tag 10
	MsgError,       // tag 11
	MsgWorkBatch,   // tag 12
	MsgBatchAck,    // tag 13
}

// wireStrings holds every string a protocol field takes from a fixed set:
// the verbs, the refusal reasons and the codec names. Both decoders take
// verb, reason and proto strings from it (intern).
var wireStrings = append(append(append([]string(nil), wireVerbs...),
	ReasonBlacklisted, ReasonUnregistered, ReasonResumeRefused, ReasonUnassigned,
	ReasonWrongParticipant, ReasonVerification, ReasonDuplicate, ReasonUnknownType),
	ProtoJSON, ProtoBinary)

// intern returns b as a string, taking it from wireStrings when it is one
// of them, so a decoded verb, reason or proto never allocates.
func intern(b []byte) string {
	if len(b) == 0 { // an ack's reason, mostly
		return ""
	}
	for _, s := range wireStrings {
		if string(b) == s {
			return s
		}
	}
	return string(b)
}

// internKind returns b as a string, reusing the kind this codec decoded
// last: a run has one work kind, so only its first frame allocates it.
func (c *Codec) internKind(b []byte) string {
	if string(b) != c.kind {
		c.kind = string(b)
	}
	return c.kind
}

// Wire codec names carried in Message.Proto during negotiation.
const (
	// ProtoJSON is the default newline-delimited JSON framing; never sent
	// on the wire (absence means JSON).
	ProtoJSON = "json"
	// ProtoBinary is the length-prefixed binary framing (binproto.go).
	ProtoBinary = "bin"
)

// maxFrame bounds one inbound frame in either codec: a JSON line or a
// binary payload. A hostile or broken peer, never a legitimate message.
const maxFrame = 1 << 20

// ErrFrameTooLong reports an inbound frame over the codec's 1 MiB frame
// limit — a hostile or broken peer, never a legitimate message.
var ErrFrameTooLong = errors.New("platform: frame exceeds 1 MiB")

// Codec frames Messages over a byte stream: one JSON object per line by
// default, or length-prefixed binary frames after EnableBinary (the
// proto=bin negotiation). The zero Codec is not usable; construct with
// NewCodec. A Codec is not safe for concurrent use, with one exception the
// supervisor relies on: the read side (Recv, buffered) and the write side
// (queue, flush, pending, EnableBinary) share only the wire-byte counters,
// which are atomic, so one goroutine may receive while another, one at a
// time, queues and flushes. EnableBinary belongs to both sides: call it
// from the receiving goroutine, holding whatever serializes the writers.
//
// In both modes the Work/Results/Acks slices of a received Message alias
// codec-owned scratch buffers: they are valid until the next Recv, which
// is exactly the lifetime the serve and worker loops need. Copy them to
// retain a message across receives.
//
// Outbound frames are encoded into one buffer and leave in one Write:
// Send is queue + flush, and the serve and worker loops queue several
// frames (the replies to a burst of pipelined requests; a worker's results
// and its next work request) before one flush.
type Codec struct {
	w  io.Writer
	br *bufio.Reader

	binary bool  // binary framing active (both directions)
	err    error // sticky framing error; the stream is unrecoverable

	line []byte  // inbound scratch: JSON line / binary payload
	hdr  [4]byte // inbound scratch: binary length prefix (a local escapes)
	// out holds the encoded frames awaiting flush. JSON frames always
	// precede binary ones (the switch is one-way), and outJSON is where the
	// JSON ones end, so flush can account the bytes per codec.
	out     []byte
	outJSON int

	// decoded-slice scratch, reused across Recvs in both modes.
	work    []WorkItem
	results []ResultItem
	acks    []ResultAck
	json    jsonReader // the JSON decoder's state and string scratch
	kind    string     // the work kind last decoded (internKind)

	// wire accounting, split by the codec in effect at the time: bytes
	// sent plus received, including newlines and frame headers. Read via
	// WireBytes; feeds redundancy_wire_bytes_total.
	jsonBytes atomic.Int64
	binBytes  atomic.Int64
}

// NewCodec wraps a bidirectional stream; inbound frames may be up to
// 1 MiB long.
func NewCodec(rw io.ReadWriter) *Codec {
	return &Codec{w: rw, br: bufio.NewReaderSize(rw, 4096)}
}

// EnableBinary switches both directions to the binary framing. Call it
// exactly at the negotiated point in the stream — after the registered
// reply that echoed proto=bin has been sent (supervisor) or received
// (worker) — or the two sides will disagree on the framing.
func (c *Codec) EnableBinary() { c.binary = true }

// Binary reports whether the binary framing is active.
func (c *Codec) Binary() bool { return c.binary }

// WireBytes returns the bytes sent plus received so far, split by codec:
// JSON lines (newlines included) and binary frames (length headers
// included).
func (c *Codec) WireBytes() (jsonBytes, binBytes int64) {
	return c.jsonBytes.Load(), c.binBytes.Load()
}

// Send writes one message — a JSON line or one binary frame — in a single
// Write, behind any frames already queued.
func (c *Codec) Send(m Message) error {
	if err := c.queue(m); err != nil {
		return err
	}
	return c.flush()
}

// queue encodes one message behind the frames already awaiting flush. A
// message that cannot be framed leaves the queue as it was.
func (c *Codec) queue(m Message) error {
	if !c.binary {
		out, err := appendJSONMessage(c.out, &m)
		if err != nil {
			return err
		}
		c.out, c.outJSON = out, len(out)
		return nil
	}
	start := len(c.out)
	c.out = append(c.out, 0, 0, 0, 0) // length prefix, patched below
	c.out = appendBinMessage(c.out, &m)
	n := len(c.out) - start - 4
	if n > maxFrame {
		c.out = c.out[:start]
		return ErrFrameTooLong
	}
	binary.LittleEndian.PutUint32(c.out[start:], uint32(n))
	return nil
}

// flush writes every queued frame in one Write; with nothing queued it
// does not touch the stream.
func (c *Codec) flush() error {
	if len(c.out) == 0 {
		return nil
	}
	n, err := c.w.Write(c.out)
	j := min(n, c.outJSON)
	c.jsonBytes.Add(int64(j))
	c.binBytes.Add(int64(n - j))
	c.out, c.outJSON = c.out[:0], 0
	return err
}

// pending reports the bytes queued and not yet flushed.
func (c *Codec) pending() int { return len(c.out) }

// buffered reports whether the read buffer holds a whole further frame,
// i.e. whether the next Recv returns without reading from the stream. A
// frame only partly received does not count, nor do blank JSON lines (Recv
// skips them): after either, Recv would block on the peer. A frame longer
// than the read buffer never counts, which only costs an early flush.
func (c *Codec) buffered() bool {
	n := c.br.Buffered()
	if n == 0 {
		return false
	}
	b, _ := c.br.Peek(n)
	if !c.binary {
		for len(b) > 0 && (b[0] == '\n' || b[0] == '\r') {
			b = b[1:]
		}
		return bytes.IndexByte(b, '\n') >= 0
	}
	if n < 4 {
		return false
	}
	size := int(binary.LittleEndian.Uint32(b))
	return size > maxFrame || n >= 4+size // an oversized frame fails without reading
}

// Recv reads the next message and returns io.EOF at a clean end of
// stream. In JSON mode blank lines are skipped; oversized frames surface
// as ErrFrameTooLong in both modes. Framing errors are sticky: once the
// stream position is unrecoverable every further Recv fails the same way.
func (c *Codec) Recv() (Message, error) {
	if c.err != nil {
		return Message{}, c.err
	}
	if c.binary {
		return c.recvBinary()
	}
	for {
		line, err := c.readLine()
		if err != nil {
			return Message{}, err
		}
		if len(line) == 0 {
			continue
		}
		var m Message
		if err := c.decodeJSONMessage(line, &m); err != nil {
			return Message{}, fmt.Errorf("platform: bad frame: %w", err)
		}
		return m, nil
	}
}

// readLine reads one newline-terminated line (the trailing \n, and a \r
// before it, stripped), tolerating a final line without a newline. Lines
// over maxFrame surface as a sticky ErrFrameTooLong.
func (c *Codec) readLine() ([]byte, error) {
	buf := c.line[:0]
	for {
		frag, err := c.br.ReadSlice('\n')
		buf = append(buf, frag...)
		c.line = buf
		if len(buf) > maxFrame+1 { // +1: the newline is not part of the frame
			c.err = ErrFrameTooLong
			return nil, ErrFrameTooLong
		}
		switch err {
		case nil:
			c.jsonBytes.Add(int64(len(buf)))
			return trimEOL(buf), nil
		case bufio.ErrBufferFull:
			continue
		case io.EOF:
			if len(buf) > 0 {
				// A torn final line: parse what is there, exactly as
				// bufio.Scanner used to.
				c.jsonBytes.Add(int64(len(buf)))
				return trimEOL(buf), nil
			}
			return nil, io.EOF
		default:
			return nil, err
		}
	}
}

// trimEOL strips one trailing \n and a \r preceding it.
func trimEOL(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line
}

// recvBinary reads one length-prefixed frame. io.EOF between frames is a
// clean end of stream; EOF inside a frame is io.ErrUnexpectedEOF.
func (c *Codec) recvBinary() (Message, error) {
	hdr := c.hdr[:]
	if _, err := io.ReadFull(c.br, hdr); err != nil {
		if err == io.ErrUnexpectedEOF {
			c.err = err
		}
		return Message{}, err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	if n > maxFrame {
		c.err = ErrFrameTooLong
		return Message{}, ErrFrameTooLong
	}
	if cap(c.line) < n {
		c.line = make([]byte, n)
	}
	c.line = c.line[:n]
	if _, err := io.ReadFull(c.br, c.line); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		c.err = err
		return Message{}, err
	}
	c.binBytes.Add(int64(4 + n))
	var m Message
	if err := c.decodeBinMessage(c.line, &m); err != nil {
		return Message{}, fmt.Errorf("platform: bad frame: %w", err)
	}
	return m, nil
}
