package platform

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// JSON wire framing (the default; see PROTOCOL.md "JSON framing"): one
// Message object per line. The codec is written for this one schema, the
// Message envelope and its three item types, instead of going through
// reflection:
//
//   - appendJSONMessage emits exactly the bytes encoding/json's Encoder
//     would for a Message: field order, omitempty, HTML-safe string
//     escaping and the float format of wait_seconds. The golden transcript
//     and FuzzCodecSend hold it to that.
//   - decodeJSONMessage parses a line in one pass and is strict where
//     encoding/json is lenient: an unknown, duplicate or case-folded key,
//     a value of the wrong type (null included), a fractional or
//     out-of-range integer, invalid UTF-8, an unpaired surrogate escape and
//     trailing bytes all reject the frame. So a corrupted byte in a key
//     fails the frame instead of zeroing a field. Every line it accepts,
//     encoding/json accepts too and decodes to the same Message
//     (FuzzCodecRecv).
//
// Like the binary decoder, it writes Work/Results/Acks into the codec's
// scratch and takes verb, reason, proto and kind strings from intern, so a
// work-verb frame decodes without allocating.

// jsonFType is Type's bit in the set of keys seen while decoding; the
// other fields reuse their binary presence bits.
const jsonFType = binFKnown + 1

// appendJSONMessage appends m as one newline-terminated JSON line to dst.
// A Wait that JSON cannot represent (NaN or an infinity) is an error and
// leaves dst as it was.
func appendJSONMessage(dst []byte, m *Message) ([]byte, error) {
	if math.IsNaN(m.Wait) || math.IsInf(m.Wait, 0) {
		return dst, fmt.Errorf("platform: wait_seconds %v has no JSON encoding", m.Wait)
	}
	dst = appendString(dst, `{"type":`, m.Type)
	if m.Name != "" {
		dst = appendString(dst, `,"name":`, m.Name)
	}
	if m.ParticipantID != 0 {
		dst = appendInt(dst, `,"participant_id":`, m.ParticipantID)
	}
	if m.Resume {
		dst = append(dst, `,"resume":true`...)
	}
	if m.Token != 0 {
		dst = appendUint(dst, `,"token":`, m.Token)
	}
	if m.Proto != "" {
		dst = appendString(dst, `,"proto":`, m.Proto)
	}
	if m.TaskID != 0 {
		dst = appendInt(dst, `,"task_id":`, m.TaskID)
	}
	if m.Copy != 0 {
		dst = appendInt(dst, `,"copy":`, m.Copy)
	}
	if m.Kind != "" {
		dst = appendString(dst, `,"kind":`, m.Kind)
	}
	if m.Seed != 0 {
		dst = appendUint(dst, `,"seed":`, m.Seed)
	}
	if m.Iters != 0 {
		dst = appendInt(dst, `,"iters":`, m.Iters)
	}
	if m.Ringer {
		dst = append(dst, `,"ringer":true`...)
	}
	if m.Value != 0 {
		dst = appendUint(dst, `,"value":`, m.Value)
	}
	if m.Wait != 0 {
		dst = append(dst, `,"wait_seconds":`...)
		dst = appendJSONFloat(dst, m.Wait)
	}
	if m.Error != "" {
		dst = appendString(dst, `,"error":`, m.Error)
	}
	if m.Reason != "" {
		dst = appendString(dst, `,"reason":`, m.Reason)
	}
	if m.Batch != 0 {
		dst = appendInt(dst, `,"batch":`, m.Batch)
	}
	if len(m.Work) > 0 {
		open := `,"work":[{"task_id":`
		for _, w := range m.Work {
			dst = appendInt(dst, open, w.TaskID)
			dst = appendInt(dst, `,"copy":`, w.Copy)
			dst = appendUint(dst, `,"seed":`, w.Seed)
			open = `},{"task_id":`
		}
		dst = append(dst, "}]"...)
	}
	if len(m.Results) > 0 {
		open := `,"results":[{"task_id":`
		for _, r := range m.Results {
			dst = appendInt(dst, open, r.TaskID)
			dst = appendInt(dst, `,"copy":`, r.Copy)
			dst = appendUint(dst, `,"value":`, r.Value)
			open = `},{"task_id":`
		}
		dst = append(dst, "}]"...)
	}
	if len(m.Acks) > 0 {
		open := `,"acks":[{"task_id":`
		for i := range m.Acks {
			a := &m.Acks[i]
			dst = appendInt(dst, open, a.TaskID)
			dst = appendInt(dst, `,"copy":`, a.Copy)
			if a.OK {
				dst = append(dst, `,"ok":true`...)
			} else {
				dst = append(dst, `,"ok":false`...)
			}
			if a.Reason != "" {
				dst = appendString(dst, `,"reason":`, a.Reason)
			}
			if a.Error != "" {
				dst = appendString(dst, `,"error":`, a.Error)
			}
			open = `},{"task_id":`
		}
		dst = append(dst, "}]"...)
	}
	if m.Epoch != 0 {
		dst = appendUint(dst, `,"epoch":`, m.Epoch)
	}
	return append(dst, '}', '\n'), nil
}

// appendInt, appendUint and appendString append a key (with the comma
// and colon around it) and its value.
func appendInt(dst []byte, key string, v int) []byte {
	return strconv.AppendInt(append(dst, key...), int64(v), 10)
}

func appendUint(dst []byte, key string, v uint64) []byte {
	return strconv.AppendUint(append(dst, key...), v, 10)
}

func appendString(dst []byte, key, v string) []byte {
	return appendJSONString(append(dst, key...), v)
}

// jsonSafe marks the ASCII bytes a JSON string carries unescaped:
// everything printable except the quote, the backslash, and the HTML
// specials <, > and & (encoding/json's HTML-safe default).
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	return t
}()

const lowerHex = "0123456789abcdef"

// appendJSONString appends s as a quoted JSON string, escaped as
// encoding/json escapes it: the short escapes for \b \f \n \r \t, \u00xx in
// lowercase hex for other control bytes and for <, > and &, U+2028 and
// U+2029 escaped, and each byte of invalid UTF-8 replaced by \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', lowerHex[b>>4], lowerHex[b&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', lowerHex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONFloat appends f as encoding/json formats a float64: the
// shortest 'f' form, or 'e' form outside [1e-6, 1e21) with a one-digit
// negative exponent unpadded (1e-07 becomes 1e-7).
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

var errJSONEnd = errors.New("unexpected end of JSON frame")

// jsonReader walks one JSON line. Every read is bounds-checked; malformed
// input returns an error naming the offset, never a panic.
type jsonReader struct {
	b   []byte
	off int
	buf []byte // scratch for the contents of a string that carries escapes
}

func (r *jsonReader) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", r.off, fmt.Sprintf(format, args...))
}

// ws skips JSON whitespace.
func (r *jsonReader) ws() {
	for r.off < len(r.b) && r.b[r.off] <= ' ' {
		switch r.b[r.off] {
		case ' ', '\t', '\r', '\n':
			r.off++
		default:
			return
		}
	}
}

// next skips whitespace and consumes ch if it comes next.
func (r *jsonReader) next(ch byte) bool {
	r.ws()
	if r.off < len(r.b) && r.b[r.off] == ch {
		r.off++
		return true
	}
	return false
}

// expect skips whitespace and consumes ch, which must come next.
func (r *jsonReader) expect(ch byte) error {
	if r.next(ch) {
		return nil
	}
	if r.off >= len(r.b) {
		return errJSONEnd
	}
	return r.errorf("want %q, found %q", ch, r.b[r.off])
}

// more steps to the next member of an object, or element of an array,
// whose opening byte is consumed: false once closing is. first is whether
// nothing has been read yet, so no comma is due.
func (r *jsonReader) more(first bool, closing byte) (bool, error) {
	if r.next(closing) {
		return false, nil
	}
	if first {
		return true, nil
	}
	return true, r.expect(',')
}

// key reads a member's key and the colon after it, leaving the reader at
// the value. The key runs to the next quote: one that carries an escape
// (or stops at an escaped quote) matches no field, so the caller rejects
// it as unknown.
func (r *jsonReader) key() ([]byte, error) {
	if err := r.expect('"'); err != nil {
		return nil, err
	}
	b, start := r.b, r.off
	i := start
	for i < len(b) && b[i] != '"' {
		i++
	}
	if i == len(b) {
		return nil, errJSONEnd
	}
	key := b[start:i]
	r.off = i + 1
	if err := r.expect(':'); err != nil {
		return nil, err
	}
	r.ws()
	return key, nil
}

// seen records a key's bit in *set and rejects a repeat.
func (r *jsonReader) seen(set *uint64, bit uint64, key []byte) error {
	if *set&bit != 0 {
		return r.errorf("duplicate key %q", key)
	}
	*set |= bit
	return nil
}

// uint reads an unsigned decimal integer: no sign, no leading zero, no
// fraction or exponent, and no more than fits in a uint64.
func (r *jsonReader) uint() (uint64, error) {
	b, start := r.b, r.off
	i := start
	var u uint64
	for ; i < len(b) && i-start < 19; i++ { // 19 digits cannot overflow
		d := b[i] - '0'
		if d > 9 {
			break
		}
		u = u*10 + uint64(d)
	}
	if i < len(b) && b[i]-'0' <= 9 {
		const cutoff = math.MaxUint64 / 10
		d := uint64(b[i] - '0')
		if u > cutoff || u == cutoff && d > math.MaxUint64%10 || i+1 < len(b) && b[i+1]-'0' <= 9 {
			return 0, r.errorf("integer out of range")
		}
		u = u*10 + d
		i++
	}
	r.off = i
	switch {
	case r.off == start:
		return 0, r.errorf("want an integer")
	case r.off-start > 1 && r.b[start] == '0':
		return 0, r.errorf("integer with a leading zero")
	case r.off < len(r.b) && (r.b[r.off] == '.' || r.b[r.off] == 'e' || r.b[r.off] == 'E'):
		return 0, r.errorf("want an integer, found a fraction or exponent")
	}
	return u, nil
}

func (r *jsonReader) int() (int, error) {
	neg := r.off < len(r.b) && r.b[r.off] == '-'
	if neg {
		r.off++
	}
	u, err := r.uint()
	if err != nil {
		return 0, err
	}
	if neg {
		if u > uint64(math.MaxInt)+1 {
			return 0, r.errorf("integer out of range")
		}
		return -int(u), nil
	}
	if u > math.MaxInt {
		return 0, r.errorf("integer out of range")
	}
	return int(u), nil
}

// float reads a JSON number, held to the JSON grammar before strconv sees
// it: strconv also takes forms JSON does not (Inf, hex, a leading +).
func (r *jsonReader) float() (float64, error) {
	start := r.off
	if r.off < len(r.b) && r.b[r.off] == '-' {
		r.off++
	}
	intStart := r.off
	if !r.run() {
		return 0, r.errorf("want a number")
	}
	if r.off-intStart > 1 && r.b[intStart] == '0' {
		return 0, r.errorf("number with a leading zero")
	}
	if r.off < len(r.b) && r.b[r.off] == '.' {
		r.off++
		if !r.run() {
			return 0, r.errorf("want a digit after the decimal point")
		}
	}
	if r.off < len(r.b) && (r.b[r.off] == 'e' || r.b[r.off] == 'E') {
		r.off++
		if r.off < len(r.b) && (r.b[r.off] == '+' || r.b[r.off] == '-') {
			r.off++
		}
		if !r.run() {
			return 0, r.errorf("want a digit in the exponent")
		}
	}
	f, err := strconv.ParseFloat(string(r.b[start:r.off]), 64)
	if err != nil {
		return 0, r.errorf("number out of range")
	}
	return f, nil
}

// run consumes a run of decimal digits and reports whether there was one.
func (r *jsonReader) run() bool {
	start := r.off
	for r.off < len(r.b) && r.b[r.off] >= '0' && r.b[r.off] <= '9' {
		r.off++
	}
	return r.off > start
}

func (r *jsonReader) bool() (bool, error) {
	rest := r.b[r.off:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		r.off += 4
		return true, nil
	case len(rest) >= 5 && string(rest[:5]) == "false":
		r.off += 5
		return false, nil
	}
	return false, r.errorf("want true or false")
}

// str reads a JSON string and returns its contents, aliasing the line when
// it carries no escape and the reader's scratch when it does; either is
// valid until the next str. Control bytes, invalid UTF-8 and unpaired
// surrogate escapes are errors.
func (r *jsonReader) str() ([]byte, error) {
	if r.off >= len(r.b) || r.b[r.off] != '"' {
		return nil, r.errorf("want a string")
	}
	r.off++
	start := r.off
	lit := start // the literal run not yet copied to dst starts here
	var dst []byte
	escaped := false
	for r.off < len(r.b) {
		switch ch := r.b[r.off]; {
		case ch == '"':
			r.off++
			if !escaped {
				return r.b[start : r.off-1], nil
			}
			r.buf = append(dst, r.b[lit:r.off-1]...)
			return r.buf, nil
		case ch == '\\':
			if !escaped {
				dst, escaped = r.buf[:0], true
			}
			var err error
			if dst, err = r.escape(append(dst, r.b[lit:r.off]...)); err != nil {
				return nil, err
			}
			lit = r.off
		case ch < 0x20:
			return nil, r.errorf("control byte %#x in string", ch)
		case ch < utf8.RuneSelf:
			r.off++
		default:
			rn, size := utf8.DecodeRune(r.b[r.off:])
			if rn == utf8.RuneError && size == 1 {
				return nil, r.errorf("invalid UTF-8 in string")
			}
			r.off += size
		}
	}
	return nil, errJSONEnd
}

// escape decodes the escape sequence at the reader, backslash included,
// onto dst. A surrogate is valid only as a high one escaped right before
// a low one.
func (r *jsonReader) escape(dst []byte) ([]byte, error) {
	if r.off+1 >= len(r.b) {
		return nil, errJSONEnd
	}
	esc := r.b[r.off+1]
	r.off += 2
	if i := strings.IndexByte(`"\/bfnrt`, esc); i >= 0 {
		return append(dst, "\"\\/\b\f\n\r\t"[i]), nil
	}
	if esc != 'u' {
		return nil, r.errorf("bad escape \\%c", esc)
	}
	rn, err := r.hex4()
	if err != nil || utf8.ValidRune(rn) {
		return utf8.AppendRune(dst, rn), err
	}
	lo := rune(-1)
	if rn < 0xdc00 && r.off+1 < len(r.b) && r.b[r.off] == '\\' && r.b[r.off+1] == 'u' {
		r.off += 2
		if lo, err = r.hex4(); err != nil {
			return nil, err
		}
	}
	if lo < 0xdc00 || lo > 0xdfff {
		return nil, r.errorf("unpaired surrogate escape")
	}
	return utf8.AppendRune(dst, 0x10000+(rn-0xd800)<<10+(lo-0xdc00)), nil
}

// hex4 reads the four hex digits of a \u escape.
func (r *jsonReader) hex4() (rune, error) {
	if r.off+4 > len(r.b) {
		return 0, errJSONEnd
	}
	var rn rune
	for _, ch := range r.b[r.off : r.off+4] {
		switch {
		case '0' <= ch && ch <= '9':
			ch -= '0'
		case 'a' <= ch && ch <= 'f':
			ch -= 'a' - 10
		case 'A' <= ch && ch <= 'F':
			ch -= 'A' - 10
		default:
			return 0, r.errorf("bad \\u escape")
		}
		rn = rn<<4 | rune(ch)
	}
	r.off += 4
	return rn, nil
}

// decodeJSONMessage decodes one JSON line into m. The Work/Results/Acks
// slices alias c's scratch buffers, valid until the next Recv.
func (c *Codec) decodeJSONMessage(line []byte, m *Message) error {
	r := &c.json // in the codec, so it does not escape per frame
	r.b, r.off = line, 0
	if err := c.jsonMembers(r, m); err != nil {
		return err
	}
	if r.ws(); r.off != len(r.b) {
		return r.errorf("%d trailing bytes", len(r.b)-r.off)
	}
	return nil
}

// jsonMembers decodes the envelope object into m.
func (c *Codec) jsonMembers(r *jsonReader, m *Message) error {
	if err := r.expect('{'); err != nil {
		return err
	}
	var set uint64
	for first := true; ; first = false {
		more, err := r.more(first, '}')
		if !more || err != nil {
			return err
		}
		key, err := r.key()
		if err != nil {
			return err
		}
		var bit uint64
		var b []byte
		switch string(key) {
		case "type":
			bit = jsonFType
			if b, err = r.str(); err == nil {
				m.Type = intern(b)
			}
		case "name":
			bit = binFName
			if b, err = r.str(); err == nil {
				m.Name = string(b)
			}
		case "participant_id":
			bit = binFParticipantID
			m.ParticipantID, err = r.int()
		case "resume":
			bit = binFResume
			m.Resume, err = r.bool()
		case "token":
			bit = binFToken
			m.Token, err = r.uint()
		case "proto":
			bit = binFProto
			if b, err = r.str(); err == nil {
				m.Proto = intern(b)
			}
		case "task_id":
			bit = binFTaskID
			m.TaskID, err = r.int()
		case "copy":
			bit = binFCopy
			m.Copy, err = r.int()
		case "kind":
			bit = binFKind
			if b, err = r.str(); err == nil {
				m.Kind = c.internKind(b)
			}
		case "seed":
			bit = binFSeed
			m.Seed, err = r.uint()
		case "iters":
			bit = binFIters
			m.Iters, err = r.int()
		case "ringer":
			bit = binFRinger
			m.Ringer, err = r.bool()
		case "value":
			bit = binFValue
			m.Value, err = r.uint()
		case "wait_seconds":
			bit = binFWait
			m.Wait, err = r.float()
		case "error":
			bit = binFError
			if b, err = r.str(); err == nil {
				m.Error = string(b)
			}
		case "reason":
			bit = binFReason
			if b, err = r.str(); err == nil {
				m.Reason = intern(b)
			}
		case "batch":
			bit = binFBatch
			m.Batch, err = r.int()
		case "work":
			bit = binFWork
			m.Work, err = jsonItems(r, &c.work, workFields)
		case "results":
			bit = binFResults
			m.Results, err = jsonItems(r, &c.results, resultFields)
		case "acks":
			bit = binFAcks
			m.Acks, err = jsonItems(r, &c.acks, ackFields)
		case "epoch":
			bit = binFEpoch
			m.Epoch, err = r.uint()
		default:
			return r.errorf("unknown key %q", key)
		}
		if err != nil {
			return err
		}
		if err := r.seen(&set, bit, key); err != nil {
			return err
		}
	}
}

// Item keys' bits in the set seen while decoding one array element.
const (
	jsonITaskID = 1 << iota
	jsonICopy
	jsonIThird // seed, value or ok
	jsonIReason
	jsonIError
)

// itemFields decodes the members of one item object, whose '{' is
// consumed. Every item has task_id and copy; a work or result item has
// one more unsigned field, named third and stored in *u, and an ack item
// (a non-nil) has ok, reason and error.
func (r *jsonReader) itemFields(third string, taskID, cp *int, u *uint64, a *ResultAck) error {
	var set uint64
	for first := true; ; first = false {
		more, err := r.more(first, '}')
		if !more || err != nil {
			return err
		}
		key, err := r.key()
		if err != nil {
			return err
		}
		var bit uint64
		var b []byte
		switch {
		case string(key) == "task_id":
			bit = jsonITaskID
			*taskID, err = r.int()
		case string(key) == "copy":
			bit = jsonICopy
			*cp, err = r.int()
		case u != nil && string(key) == third:
			bit = jsonIThird
			*u, err = r.uint()
		case a != nil && string(key) == "ok":
			bit = jsonIThird
			a.OK, err = r.bool()
		case a != nil && string(key) == "reason":
			bit = jsonIReason
			if b, err = r.str(); err == nil {
				a.Reason = intern(b)
			}
		case a != nil && string(key) == "error":
			bit = jsonIError
			if b, err = r.str(); err == nil {
				a.Error = string(b)
			}
		default:
			return r.errorf("unknown item key %q", key)
		}
		if err != nil {
			return err
		}
		if err := r.seen(&set, bit, key); err != nil {
			return err
		}
	}
}

// jsonItems decodes an item array into *scratch, each element's members
// by fields. [] decodes to an empty slice, not nil, as in encoding/json.
func jsonItems[T any](r *jsonReader, scratch *[]T, fields func(*jsonReader, *T) error) ([]T, error) {
	items := (*scratch)[:0]
	if items == nil {
		items = make([]T, 0, 1)
	}
	err := r.expect('[')
	for first := true; err == nil; first = false {
		var more bool
		if more, err = r.more(first, ']'); !more || err != nil {
			break
		}
		var zero T
		items = append(items, zero)
		if err = r.expect('{'); err == nil {
			err = fields(r, &items[len(items)-1])
		}
	}
	*scratch = items
	return items, err
}

func workFields(r *jsonReader, w *WorkItem) error {
	return r.itemFields("seed", &w.TaskID, &w.Copy, &w.Seed, nil)
}

func resultFields(r *jsonReader, it *ResultItem) error {
	return r.itemFields("value", &it.TaskID, &it.Copy, &it.Value, nil)
}

func ackFields(r *jsonReader, a *ResultAck) error {
	return r.itemFields("", &a.TaskID, &a.Copy, nil, a)
}
