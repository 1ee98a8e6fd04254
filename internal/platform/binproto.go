package platform

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary wire framing (negotiated with proto=bin at registration; see
// PROTOCOL.md for the byte-level specification):
//
//	frame   := u32-LE payload-length, payload   (length excludes itself)
//	payload := verb-tag, [type-string], presence-bitmap, fields...
//
// The verb tag is the 1-based index into wireVerbs; tag 0 is followed by
// an explicit type string for non-verb types. The presence bitmap is a
// uvarint with one bit per Message field in declaration order; a clear
// bit means the field is at its zero value, mirroring the JSON codec's
// omitempty semantics exactly — decoding a binary frame yields the same
// Message that encoding to JSON and decoding back would. Integers are
// varints (zigzag for signed fields), Wait is 8 bytes of float64 bits,
// strings and arrays are length-prefixed. Both directions of the hot
// path (work_batch leases out, result_batch values in) therefore cost a
// few bytes per assignment instead of a JSON object, and neither side
// allocates at steady state: the encoder appends into a reused frame
// buffer and the decoder aliases item slices owned by the Codec.

// binTagExplicit is verb tag 0: an explicit type string follows, so
// tests and forward-compatible peers can frame types outside wireVerbs.
const binTagExplicit = 0

// binTagByVerb inverts wireVerbs: verb name → 1-based tag.
var binTagByVerb = func() map[string]byte {
	m := make(map[string]byte, len(wireVerbs))
	for i, v := range wireVerbs {
		m[v] = byte(i + 1)
	}
	return m
}()

// Presence-bitmap bits, one per Message field in declaration order (Type
// rides in the verb tag). Append only — renumbering changes the wire.
const (
	binFName = 1 << iota
	binFParticipantID
	binFResume
	binFToken
	binFProto
	binFTaskID
	binFCopy
	binFKind
	binFSeed
	binFIters
	binFRinger
	binFValue
	binFWait
	binFError
	binFReason
	binFBatch
	binFWork
	binFResults
	binFAcks
	binFEpoch

	binFKnown = binFEpoch<<1 - 1 // every defined bit
)

// appendBinMessage appends m's binary payload (no length prefix) to dst.
func appendBinMessage(dst []byte, m *Message) []byte {
	if tag, ok := binTagByVerb[m.Type]; ok {
		dst = append(dst, tag)
	} else {
		dst = append(dst, binTagExplicit)
		dst = appendBinString(dst, m.Type)
	}
	var bits uint64
	if m.Name != "" {
		bits |= binFName
	}
	if m.ParticipantID != 0 {
		bits |= binFParticipantID
	}
	if m.Resume {
		bits |= binFResume
	}
	if m.Token != 0 {
		bits |= binFToken
	}
	if m.Proto != "" {
		bits |= binFProto
	}
	if m.TaskID != 0 {
		bits |= binFTaskID
	}
	if m.Copy != 0 {
		bits |= binFCopy
	}
	if m.Kind != "" {
		bits |= binFKind
	}
	if m.Seed != 0 {
		bits |= binFSeed
	}
	if m.Iters != 0 {
		bits |= binFIters
	}
	if m.Ringer {
		bits |= binFRinger
	}
	if m.Value != 0 {
		bits |= binFValue
	}
	if m.Wait != 0 {
		bits |= binFWait
	}
	if m.Error != "" {
		bits |= binFError
	}
	if m.Reason != "" {
		bits |= binFReason
	}
	if m.Batch != 0 {
		bits |= binFBatch
	}
	if len(m.Work) > 0 {
		bits |= binFWork
	}
	if len(m.Results) > 0 {
		bits |= binFResults
	}
	if len(m.Acks) > 0 {
		bits |= binFAcks
	}
	if m.Epoch != 0 {
		bits |= binFEpoch
	}
	dst = binary.AppendUvarint(dst, bits)
	if bits&binFName != 0 {
		dst = appendBinString(dst, m.Name)
	}
	if bits&binFParticipantID != 0 {
		dst = binary.AppendVarint(dst, int64(m.ParticipantID))
	}
	// Resume and Ringer are carried by their presence bits alone.
	if bits&binFToken != 0 {
		dst = binary.AppendUvarint(dst, m.Token)
	}
	if bits&binFProto != 0 {
		dst = appendBinString(dst, m.Proto)
	}
	if bits&binFTaskID != 0 {
		dst = binary.AppendVarint(dst, int64(m.TaskID))
	}
	if bits&binFCopy != 0 {
		dst = binary.AppendVarint(dst, int64(m.Copy))
	}
	if bits&binFKind != 0 {
		dst = appendBinString(dst, m.Kind)
	}
	if bits&binFSeed != 0 {
		dst = binary.AppendUvarint(dst, m.Seed)
	}
	if bits&binFIters != 0 {
		dst = binary.AppendVarint(dst, int64(m.Iters))
	}
	if bits&binFValue != 0 {
		dst = binary.AppendUvarint(dst, m.Value)
	}
	if bits&binFWait != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(m.Wait))
	}
	if bits&binFError != 0 {
		dst = appendBinString(dst, m.Error)
	}
	if bits&binFReason != 0 {
		dst = appendBinString(dst, m.Reason)
	}
	if bits&binFBatch != 0 {
		dst = binary.AppendVarint(dst, int64(m.Batch))
	}
	if bits&binFWork != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(m.Work)))
		for i := range m.Work {
			w := &m.Work[i]
			dst = binary.AppendVarint(dst, int64(w.TaskID))
			dst = binary.AppendVarint(dst, int64(w.Copy))
			dst = binary.AppendUvarint(dst, w.Seed)
		}
	}
	if bits&binFResults != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(m.Results)))
		for i := range m.Results {
			r := &m.Results[i]
			dst = binary.AppendVarint(dst, int64(r.TaskID))
			dst = binary.AppendVarint(dst, int64(r.Copy))
			dst = binary.AppendUvarint(dst, r.Value)
		}
	}
	if bits&binFAcks != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(m.Acks)))
		for i := range m.Acks {
			a := &m.Acks[i]
			dst = binary.AppendVarint(dst, int64(a.TaskID))
			dst = binary.AppendVarint(dst, int64(a.Copy))
			ok := byte(0)
			if a.OK {
				ok = 1
			}
			dst = append(dst, ok)
			dst = appendBinString(dst, a.Reason)
			dst = appendBinString(dst, a.Error)
		}
	}
	if bits&binFEpoch != 0 {
		dst = binary.AppendUvarint(dst, m.Epoch)
	}
	return dst
}

func appendBinString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// binReader walks one binary payload. Every read is bounds-checked; any
// truncation or malformed varint returns an error instead of panicking
// (the codec fuzz target drives this with hostile bytes).
type binReader struct {
	b   []byte
	off int
}

func (r *binReader) remaining() int { return len(r.b) - r.off }

func (r *binReader) u8() (byte, error) {
	if r.off >= len(r.b) {
		return 0, fmt.Errorf("truncated binary frame")
	}
	b := r.b[r.off]
	r.off++
	return b, nil
}

func (r *binReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("bad varint in binary frame")
	}
	r.off += n
	return v, nil
}

func (r *binReader) varint() (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("bad varint in binary frame")
	}
	r.off += n
	return v, nil
}

// bytes reads a length-prefixed string's bytes, aliasing the payload.
func (r *binReader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.remaining()) {
		return nil, fmt.Errorf("truncated string in binary frame")
	}
	b := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

func (r *binReader) str() (string, error) {
	b, err := r.bytes()
	return string(b), err
}

// internStr reads a string that takes its value from wireStrings (intern).
func (r *binReader) internStr() (string, error) {
	b, err := r.bytes()
	return intern(b), err
}

func (r *binReader) f64() (float64, error) {
	if r.remaining() < 8 {
		return 0, fmt.Errorf("truncated float in binary frame")
	}
	bits := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return math.Float64frombits(bits), nil
}

// count reads an array length and rejects one that could not fit in the
// remaining payload (minItem bytes per element), so a hostile length
// cannot force a huge allocation.
func (r *binReader) count(minItem int) (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n*uint64(minItem) > uint64(r.remaining()) {
		return 0, fmt.Errorf("binary frame array length %d overruns payload", n)
	}
	return int(n), nil
}

// decodeBinMessage decodes one payload into m. The Work/Results/Acks
// slices alias c's scratch buffers, valid until the next Recv.
func (c *Codec) decodeBinMessage(payload []byte, m *Message) error {
	r := binReader{b: payload}
	tag, err := r.u8()
	if err != nil {
		return err
	}
	switch {
	case tag == binTagExplicit:
		if m.Type, err = r.str(); err != nil {
			return err
		}
	case int(tag) <= len(wireVerbs):
		m.Type = wireVerbs[tag-1]
	default:
		return fmt.Errorf("unknown binary verb tag %d", tag)
	}
	bits, err := r.uvarint()
	if err != nil {
		return err
	}
	if bits&^uint64(binFKnown) != 0 {
		return fmt.Errorf("unknown binary field bits %#x", bits&^uint64(binFKnown))
	}
	if bits&binFName != 0 {
		if m.Name, err = r.str(); err != nil {
			return err
		}
	}
	if bits&binFParticipantID != 0 {
		v, err := r.varint()
		if err != nil {
			return err
		}
		m.ParticipantID = int(v)
	}
	m.Resume = bits&binFResume != 0
	if bits&binFToken != 0 {
		if m.Token, err = r.uvarint(); err != nil {
			return err
		}
	}
	if bits&binFProto != 0 {
		if m.Proto, err = r.internStr(); err != nil {
			return err
		}
	}
	if bits&binFTaskID != 0 {
		v, err := r.varint()
		if err != nil {
			return err
		}
		m.TaskID = int(v)
	}
	if bits&binFCopy != 0 {
		v, err := r.varint()
		if err != nil {
			return err
		}
		m.Copy = int(v)
	}
	if bits&binFKind != 0 {
		b, err := r.bytes()
		if err != nil {
			return err
		}
		m.Kind = c.internKind(b)
	}
	if bits&binFSeed != 0 {
		if m.Seed, err = r.uvarint(); err != nil {
			return err
		}
	}
	if bits&binFIters != 0 {
		v, err := r.varint()
		if err != nil {
			return err
		}
		m.Iters = int(v)
	}
	m.Ringer = bits&binFRinger != 0
	if bits&binFValue != 0 {
		if m.Value, err = r.uvarint(); err != nil {
			return err
		}
	}
	if bits&binFWait != 0 {
		if m.Wait, err = r.f64(); err != nil {
			return err
		}
	}
	if bits&binFError != 0 {
		if m.Error, err = r.str(); err != nil {
			return err
		}
	}
	if bits&binFReason != 0 {
		if m.Reason, err = r.internStr(); err != nil {
			return err
		}
	}
	if bits&binFBatch != 0 {
		v, err := r.varint()
		if err != nil {
			return err
		}
		m.Batch = int(v)
	}
	if bits&binFWork != 0 {
		n, err := r.count(3) // three varints, one byte minimum each
		if err != nil {
			return err
		}
		work := c.work[:0]
		for i := 0; i < n; i++ {
			var w WorkItem
			var v int64
			if v, err = r.varint(); err != nil {
				return err
			}
			w.TaskID = int(v)
			if v, err = r.varint(); err != nil {
				return err
			}
			w.Copy = int(v)
			if w.Seed, err = r.uvarint(); err != nil {
				return err
			}
			work = append(work, w)
		}
		c.work = work
		if n > 0 {
			m.Work = work
		}
	}
	if bits&binFResults != 0 {
		n, err := r.count(3)
		if err != nil {
			return err
		}
		results := c.results[:0]
		for i := 0; i < n; i++ {
			var it ResultItem
			var v int64
			if v, err = r.varint(); err != nil {
				return err
			}
			it.TaskID = int(v)
			if v, err = r.varint(); err != nil {
				return err
			}
			it.Copy = int(v)
			if it.Value, err = r.uvarint(); err != nil {
				return err
			}
			results = append(results, it)
		}
		c.results = results
		if n > 0 {
			m.Results = results
		}
	}
	if bits&binFAcks != 0 {
		n, err := r.count(5) // two varints, an OK byte, two string lengths
		if err != nil {
			return err
		}
		acks := c.acks[:0]
		for i := 0; i < n; i++ {
			var a ResultAck
			var v int64
			if v, err = r.varint(); err != nil {
				return err
			}
			a.TaskID = int(v)
			if v, err = r.varint(); err != nil {
				return err
			}
			a.Copy = int(v)
			ok, err := r.u8()
			if err != nil {
				return err
			}
			a.OK = ok != 0
			if a.Reason, err = r.internStr(); err != nil {
				return err
			}
			if a.Error, err = r.str(); err != nil {
				return err
			}
			acks = append(acks, a)
		}
		c.acks = acks
		if n > 0 {
			m.Acks = acks
		}
	}
	if bits&binFEpoch != 0 {
		if m.Epoch, err = r.uvarint(); err != nil {
			return err
		}
	}
	if r.remaining() != 0 {
		return fmt.Errorf("%d trailing bytes in binary frame", r.remaining())
	}
	return nil
}
