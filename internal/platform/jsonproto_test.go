package platform

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"unsafe"
)

// checkJSONEncode fails unless queue emits exactly the bytes
// encoding/json's Encoder writes for m, or both refuse it.
func checkJSONEncode(t *testing.T, m Message) {
	t.Helper()
	var ref bytes.Buffer
	wantErr := json.NewEncoder(&ref).Encode(m)
	want := ref.Bytes()
	var c Codec
	gotErr := c.queue(m)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("encode error %v, encoding/json %v\nmessage: %+v", gotErr, wantErr, m)
	}
	if gotErr != nil {
		if len(c.out) != 0 {
			t.Fatalf("a refused message left %q queued", c.out)
		}
		return
	}
	if !bytes.Equal(c.out, want) {
		t.Fatalf("encode mismatch\ngot  %q\nwant %q", c.out, want)
	}
}

// checkJSONDecode fails if the codec accepts line where encoding/json's
// Decoder, unknown keys disallowed, refuses it or decodes it differently.
// It reports whether the codec accepted it.
func checkJSONDecode(t *testing.T, line []byte) bool {
	t.Helper()
	var c Codec
	var got Message
	if err := c.decodeJSONMessage(line, &got); err != nil {
		return false
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var want Message
	if err := dec.Decode(&want); err != nil {
		t.Fatalf("codec accepted %q, encoding/json refuses it: %v", line, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decode mismatch on %q\ngot  %+v\nwant %+v", line, got, want)
	}
	return true
}

func TestJSONEncodeMatchesEncodingJSON(t *testing.T) {
	for _, g := range goldenMessages() {
		checkJSONEncode(t, g.m)
	}
	for _, s := range []string{
		"", `<a href="x">&amp;</a>`, "tab\there\nnewline\r\b\f", "\x00\x01\x1f\x7f",
		`back\slash "quoted"`, "line\u2028sep\u2029para", "bad utf8 \xff\xfe end", "\xc3",
		"trunc \xe2\x82", "ok \u00e9 \u20ac \U0001d11e \ufffd", "\xed\xa0\x80 surrogate",
	} {
		checkJSONEncode(t, Message{Type: s, Name: s, Error: s, Kind: s})
		checkJSONEncode(t, Message{Type: MsgBatchAck, Acks: []ResultAck{{Reason: s, Error: s}, {OK: true}}})
	}
	for _, w := range []float64{
		0.25, 1, -1, 1e-7, 1e-6, 9.99e-7, 1e20, 1e21, 1.5e300, -2.5e-300, 5e-324,
		math.MaxFloat64, 123456789.125, math.Copysign(0, -1),
	} {
		checkJSONEncode(t, Message{Type: MsgNoWork, Wait: w})
	}
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkJSONEncode(t, Message{Type: MsgNoWork, Wait: w})
	}
	checkJSONEncode(t, Message{Type: MsgWork, ParticipantID: math.MinInt, TaskID: math.MaxInt, Copy: -1,
		Seed: math.MaxUint64, Value: 1, Token: math.MaxUint64, Iters: -7, Batch: 3, Epoch: 9})
}

// TestJSONDecodeStrict: every line here is a bad frame, though
// encoding/json accepts most of them.
func TestJSONDecodeStrict(t *testing.T) {
	for _, line := range []string{
		``, ` `, `null`, `[]`, `"x"`, `{`, `{"type":"ack"`, `{"type":"ack",}`, `{,"type":"ack"}`,
		`{"type":"ack"}x`, `{"type":"ack"}{}`, `{"type":"ack"} null`,
		`{"typo":"ack"}`, `{"Type":"ack"}`, `{"TYPE":"ack"}`, `{"type ":"ack"}`, `{"t\u0079pe":"ack"}`,
		`{"type":"ack","type":"ack"}`, `{"type":"ack","task_id":1,"task_id":1}`,
		`{"type":null}`, `{"type":1}`, `{"task_id":null}`, `{"task_id":"1"}`, `{"resume":1}`,
		`{"resume":null}`, `{"work":null}`, `{"work":{}}`, `{"work":[1]}`, `{"work":[null]}`,
		`{"task_id":1.5}`, `{"task_id":1e2}`, `{"task_id":1.0}`, `{"task_id":01}`, `{"task_id":+1}`,
		`{"task_id":-}`, `{"task_id":9223372036854775808}`, `{"task_id":-9223372036854775809}`,
		`{"seed":-1}`, `{"seed":-0}`, `{"seed":18446744073709551616}`, `{"value":1e3}`,
		`{"wait_seconds":1e400}`, `{"wait_seconds":.5}`, `{"wait_seconds":1.}`, `{"wait_seconds":1e}`,
		`{"wait_seconds":00.5}`, `{"wait_seconds":Infinity}`, `{"wait_seconds":"1"}`,
		"{\"name\":\"\xff\"}", "{\"name\":\"\xc3(\"}", "{\"name\":\"\xed\xa0\x80\"}", "{\"name\":\"a\x01\"}",
		`{"name":"\ud800"}`, `{"name":"\udc00"}`, `{"name":"\ud800A"}`, `{"name":"\ud800x"}`,
		`{"name":"\x41"}`, `{"name":"\u00g1"}`, `{"name":"\u00`, `{"name":"abc`,
		`{"work":[{"task_id":1,"seed":2,"value":3}]}`, `{"results":[{"seed":1}]}`,
		`{"acks":[{"ok":true,"ok":false}]}`, `{"acks":[{"ok":"true"}]}`, `{"acks":[{}],}`,
		`{"work":[{"task_id":1},]}`, `{"work":[{"task_id":1}{"task_id":2}]}`, `{"ringer":tru}`,
		`{"ringer":truex}`, `{"type":"""wait_seconds":0}`, `{"type":"ack" "name":""}`,
	} {
		var c Codec
		var m Message
		if err := c.decodeJSONMessage([]byte(line), &m); err == nil {
			t.Errorf("%q decoded to %+v, want a bad frame", line, m)
		}
	}
}

// TestJSONDecodeAgreesWithEncodingJSON: lines the codec accepts, spelled
// in ways its own encoder never writes, decode as encoding/json decodes
// them.
func TestJSONDecodeAgreesWithEncodingJSON(t *testing.T) {
	for _, line := range []string{
		`{}`, ` { "type" : "ack" , "task_id" : -0 } `, "{\"type\":\"ack\"}\r",
		`{"copy":1,"type":"work","kind":"hashchain","iters":3,"seed":18446744073709551615}`,
		`{"name":"\"\\\/\b\f\n\r\t\u00e9\u20AC\ud834\udd1e\u0000"}`, "{\"name\":\"\u00e9\u20ac\U0001d11e\"}",
		`{"wait_seconds":-0}`, `{"wait_seconds":1E-7}`, `{"wait_seconds":2.5e+3}`, `{"wait_seconds":0.1}`,
		`{"participant_id":-9223372036854775808,"task_id":9223372036854775807}`,
		`{"work":[]}`, `{"results":[{}]}`, `{"acks":[{"reason":"duplicate","error":"x","ok":false,"copy":2}]}`,
		`{"type":"register","resume":false,"ringer":true,"proto":"bin","token":0}`,
	} {
		if !checkJSONDecode(t, []byte(line)) {
			var c Codec
			var m Message
			t.Errorf("%q: %v", line, c.decodeJSONMessage([]byte(line), &m))
		}
	}
}

// TestJSONDecodeInternsStrings: verbs, reasons, protos and the work kind
// come back as the strings already held, not as copies of the frame.
func TestJSONDecodeInternsStrings(t *testing.T) {
	c := NewCodec(new(bytes.Buffer))
	var m Message
	line := []byte(`{"type":"batch_ack","proto":"bin","reason":"blacklisted","kind":"hashchain","acks":[{"ok":false,"reason":"unassigned"}]}`)
	for i := 0; i < 2; i++ {
		if err := c.decodeJSONMessage(line, &m); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = c.decodeJSONMessage(line, &m) }); allocs != 0 {
		t.Errorf("decoding interned strings allocates %v times, want 0", allocs)
	}
	for _, s := range []struct{ got, want string }{
		{m.Type, MsgBatchAck}, {m.Proto, ProtoBinary}, {m.Reason, ReasonBlacklisted},
		{m.Acks[0].Reason, ReasonUnassigned}, {m.Kind, c.kind},
	} {
		if s.got != s.want || unsafe.StringData(s.got) != unsafe.StringData(s.want) {
			t.Errorf("decoded %q is not the interned %q", s.got, s.want)
		}
	}
}

// goldenJSONFrames returns the frames of the JSON wire golden, without
// their newlines.
func goldenJSONFrames(t *testing.T) [][]byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "json.wire.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) > 0 && !bytes.HasPrefix(line, []byte("-- ")) {
			frames = append(frames, line)
		}
	}
	return frames
}

// TestJSONGoldenByteFlips corrupts the golden JSON frames the way
// internal/faults does, one byte at a time with XOR 0x80, and requires
// every corrupted frame to be a Recv error: a flipped byte in a key,
// a number or a string's contents must never decode to a message with a
// field silently altered or gone.
func TestJSONGoldenByteFlips(t *testing.T) {
	flips, accepted := 0, 0
	for _, frame := range goldenJSONFrames(t) {
		for i := range frame {
			corrupt := append(bytes.Clone(frame), '\n')
			corrupt[i] ^= 0x80
			c := NewCodec(struct {
				*bytes.Reader
				discard
			}{bytes.NewReader(corrupt), discard{}})
			flips++
			if m, err := c.Recv(); err == nil {
				accepted++
				if accepted <= 10 {
					t.Errorf("flip of byte %d of %q accepted as %+v", i, frame, m)
				}
			}
		}
	}
	if accepted > 0 {
		t.Errorf("%d of %d single-byte flips decoded without error", accepted, flips)
	} else {
		t.Logf("%d single-byte flips, all refused", flips)
	}
}

// TestCodecFramesAllocFree: once warm, a codec encodes, flushes and
// decodes every lease-cycle frame without allocating, in both modes: the
// four single-item frames and the four batch frames at 16 items.
func TestCodecFramesAllocFree(t *testing.T) {
	const batch = 16
	work := make([]WorkItem, batch)
	results := make([]ResultItem, batch)
	acks := make([]ResultAck, batch)
	for i := range work {
		work[i] = WorkItem{TaskID: 1000 + i, Copy: i % 3, Seed: 0x9e3779b97f4a7c15 * uint64(i+1)}
		results[i] = ResultItem{TaskID: 1000 + i, Copy: i % 3, Value: uint64(i) << 40}
		acks[i] = ResultAck{TaskID: 1000 + i, Copy: i % 3, OK: true}
	}
	acks[3] = ResultAck{TaskID: 1003, Copy: 0, Reason: ReasonDuplicate}
	frames := []Message{
		{Type: MsgRequestWork, ParticipantID: 7},
		{Type: MsgWork, TaskID: 41, Copy: 2, Kind: "hashchain", Seed: 0x9e3779b97f4a7c15, Iters: 1},
		{Type: MsgResult, ParticipantID: 7, TaskID: 41, Copy: 2, Value: 0xfeedface},
		{Type: MsgAck},
		{Type: MsgGetWork, ParticipantID: 7, Batch: batch},
		{Type: MsgWorkBatch, Kind: "hashchain", Iters: 1, Work: work},
		{Type: MsgResultBatch, ParticipantID: 7, Results: results},
		{Type: MsgBatchAck, Acks: acks},
	}
	for _, binary := range []bool{false, true} {
		c := NewCodec(new(bytes.Buffer))
		if binary {
			c.EnableBinary()
		}
		cycle := func() {
			for _, m := range frames {
				if err := c.queue(m); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.flush(); err != nil {
				t.Fatal(err)
			}
			for range frames {
				if _, err := c.Recv(); err != nil {
					t.Fatal(err)
				}
			}
		}
		cycle() // warm-up: buffers and scratch reach their size
		if n := testing.AllocsPerRun(200, cycle); n != 0 {
			t.Errorf("binary=%v: a lease-cycle of frames allocates %v times, want 0", binary, n)
		}
	}
}

// BenchmarkJSONLeaseFrames times the JSON codec on the four frames of a
// batch-1 lease cycle (request_work, work, result, ack): encode is queue
// plus flush into a buffer, decode is Recv. One op is one cycle.
func BenchmarkJSONLeaseFrames(b *testing.B) {
	frames := []Message{
		{Type: MsgRequestWork, ParticipantID: 1},
		{Type: MsgWork, TaskID: 150123, Copy: 1, Kind: "hashchain", Seed: 0x9e3779b97f4a7c15, Iters: 1},
		{Type: MsgResult, ParticipantID: 1, TaskID: 150123, Copy: 1, Value: 0xc2b2ae3d27d4eb4f},
		{Type: MsgAck},
	}
	var buf bytes.Buffer
	c := NewCodec(&buf)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, m := range frames {
				if err := c.queue(m); err != nil {
					b.Fatal(err)
				}
			}
			if err := c.flush(); err != nil {
				b.Fatal(err)
			}
			buf.Reset()
		}
	})
	b.Run("decode", func(b *testing.B) {
		for _, m := range frames {
			if err := c.queue(m); err != nil {
				b.Fatal(err)
			}
		}
		cycle := bytes.Repeat(c.out, 256)
		c.out = c.out[:0]
		var buf bytes.Buffer
		c := NewCodec(&buf) // fresh read buffer: nothing left from the last b.N
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%256 == 0 {
				buf.Reset()
				buf.Write(cycle)
			}
			for range frames {
				if _, err := c.Recv(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
