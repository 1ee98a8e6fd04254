package platform

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzCodecRecv hardens the wire decoder: arbitrary bytes from a hostile
// or broken worker must produce an error or a message, never a panic, and
// decoding must terminate. It is also differential: whenever the JSON
// decoder accepts a line, encoding/json (unknown keys disallowed) accepts
// it too and decodes the same Message. The converse need not hold; the
// codec refuses what encoding/json forgives (duplicate or case-folded
// keys, null, invalid UTF-8).
func FuzzCodecRecv(f *testing.F) {
	f.Add([]byte(`{"type":"register","name":"x"}` + "\n"))
	f.Add([]byte(`{"type":"result","participant_id":3,"task_id":1,"value":18446744073709551615}` + "\n"))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(`{"type":`))
	f.Add([]byte(`{"type":"work","iters":-1}` + "\n" + `garbage`))
	f.Add([]byte(strings.Repeat("a", 5000) + "\n"))
	f.Add([]byte(`{"type":"error","name":"<>&\u0001\u2028\ud83d\ude00","error":"\"\\\/\b\f\n\r\t"}` + "\r\n"))
	f.Add([]byte("{\"type\":\"register\",\"name\":\"\xff\xfe\",\"Type\":\"x\"}\n{\"type\":\"error\",\"error\":\"\xc3\"}\n"))
	f.Add([]byte(`{"type":"no_work","wait_seconds":1e-7}` + "\n" + `{"type":"no_work","wait_seconds":1e21}` + "\n" +
		`{"type":"no_work","wait_seconds":0.25}`))
	f.Add([]byte(`{"type":"batch_ack","acks":[{"task_id":7,"copy":0,"ok":true},{"ok":false,"reason":"unassigned","error":"x"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewCodec(struct {
			*strings.Reader
			discard
		}{strings.NewReader(string(data)), discard{}})
		for i := 0; i < 64; i++ { // bounded: Recv must make progress
			if _, err := c.Recv(); err != nil {
				break
			}
		}
		for _, line := range bytes.Split(data, []byte("\n")) {
			checkJSONDecode(t, trimEOL(line))
		}
	})
}

// FuzzCodecSend holds the JSON encoder to encoding/json byte for byte:
// for every Message the fuzzer builds — hostile strings, any integers,
// any float including NaN and the infinities, items of every kind —
// queue emits exactly what json.Encoder.Encode writes, or both refuse it.
func FuzzCodecSend(f *testing.F) {
	f.Add("register", "<b>&</b>", "", int64(3), uint64(0), 0.0, uint8(0))
	f.Add("error", "tab\there\x01\x1f", "line\u2028sep\u2029", int64(-1), uint64(1)<<63, 0.0, uint8(7))
	f.Add("x-experimental", "bad \xff utf8 \xc3", "trunc \xe2\x82", int64(0), uint64(99), 1e-7, uint8(1))
	f.Add(MsgNoWork, "", "", int64(0), uint64(0), 1e21, uint8(0))
	f.Add(MsgNoWork, "", "", int64(0), uint64(0), 0.25, uint8(0))
	f.Add(MsgNoWork, "", "", int64(0), uint64(0), math.NaN(), uint8(0))
	f.Add(MsgWorkBatch, "hashchain", "\"quoted\\", int64(1)<<40, uint64(math.MaxUint64), -3.5e-300, uint8(0xff))
	f.Fuzz(func(t *testing.T, typ, name, errText string, n int64, u uint64, wait float64, shape uint8) {
		i := int(n)
		m := Message{
			Type: typ, Name: name, ParticipantID: i, Resume: shape&1 != 0, Token: u, Proto: name,
			TaskID: -i, Copy: i >> 3, Kind: errText, Seed: u >> 1, Iters: i ^ 5, Ringer: shape&2 != 0,
			Value: ^u, Wait: wait, Error: errText, Reason: typ, Batch: i & 63, Epoch: u & 0xffff,
		}
		for k := 0; k < int(shape>>5); k++ {
			m.Work = append(m.Work, WorkItem{TaskID: i + k, Copy: k, Seed: u + uint64(k)})
			m.Results = append(m.Results, ResultItem{TaskID: -k, Copy: i, Value: u * uint64(k)})
			m.Acks = append(m.Acks, ResultAck{TaskID: k, Copy: -i, OK: k&1 == 0, Reason: name, Error: errText})
		}
		checkJSONEncode(t, m)
	})
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// FuzzBinaryCodec hardens the binary codec from both directions. The raw
// fuzz bytes are fed to the payload decoder, which must error or decode
// but never panic. Then, when the bytes parse as a JSON Message, the
// differential property is checked: binary encode→decode must equal the
// JSON round trip of the same message — the two codecs are required to
// agree on semantics (presence bits mirror omitempty) for every
// reachable Message, not just the golden set.
func FuzzBinaryCodec(f *testing.F) {
	f.Add([]byte{1, 0x11, 5, 'a', 'l', 'i', 'c', 'e', 3, 'b', 'i', 'n'})
	f.Add([]byte{9, 0})
	f.Add([]byte{0, 2, 'x', 'y', 0})
	f.Add([]byte(`{"type":"result_batch","participant_id":3,"results":[{"task_id":7,"copy":0,"value":99}]}`))
	f.Add([]byte(`{"type":"work","task_id":-1,"iters":-5,"seed":18446744073709551615}`))
	f.Add([]byte(`{"type":"no_work","wait_seconds":0.25}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Codec
		var m Message
		_ = c.decodeBinMessage(data, &m) // must not panic on hostile bytes

		m = Message{}
		if err := json.Unmarshal(data, &m); err != nil {
			return
		}
		jb, err := json.Marshal(m)
		if err != nil {
			return // e.g. a string that does not survive re-marshaling
		}
		var want Message
		if err := json.Unmarshal(jb, &want); err != nil {
			t.Fatalf("JSON round trip: %v", err)
		}
		payload := appendBinMessage(nil, &m)
		var got Message
		var c2 Codec
		if err := c2.decodeBinMessage(payload, &got); err != nil {
			t.Fatalf("binary decode of own encoding failed: %v\nmessage: %+v", err, m)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("codec disagreement\nbinary: %+v\njson:   %+v", got, want)
		}
	})
}
