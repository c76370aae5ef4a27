package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
	"repro/store"
)

// frameCases covers every frame kind with representative contents —
// shared by the round-trip test and the fuzz corpus.
func frameCases() []WALFrame {
	return []WALFrame{
		{Kind: FrameRecords, Seq: 0, Values: []string{"a"}},
		{Kind: FrameRecords, Seq: 1 << 40, Values: []string{"", "x", strings.Repeat("v", 300)}},
		{Kind: FrameRecords, Seq: 7, Values: []string{"a", "b"},
			Rows: []store.Row{{store.U64(42), store.Blob([]byte("m")), store.Null()}, nil}},
		{Kind: FrameHeartbeat, Seq: 99},
		{Kind: FrameAck, Seq: 7},
	}
}

// retiredFrames encodes the snapshot-bootstrap frames (kinds 2-4: begin,
// chunk, end) the way older primaries sent them. ParseWALFrame must
// reject every one; they also seed the fuzz corpus.
func retiredFrames() [][]byte {
	chunk := func(b []byte) []byte {
		w := wire.NewRawWriter()
		w.Blob(b)
		body := w.Bytes()
		return append(binary.LittleEndian.AppendUint32([]byte{3}, crc32.ChecksumIEEE(body)), body...)
	}
	return [][]byte{
		binary.AppendUvarint([]byte{2}, 12345),
		chunk([]byte{0, 1, 2, 0xFF}),
		chunk([]byte{}),
		{4},
	}
}

func TestWALFrameRoundTrip(t *testing.T) {
	for _, want := range frameCases() {
		got, err := ParseWALFrame(EncodeWALFrame(want))
		if err != nil {
			t.Fatalf("kind %d: parse: %v", want.Kind, err)
		}
		if len(want.Values) == 0 {
			want.Values = nil
		}
		if len(got.Values) == 0 {
			got.Values = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("kind %d: round trip %+v -> %+v", want.Kind, want, got)
		}
	}
}

func TestParseWALFrameRejects(t *testing.T) {
	records := EncodeWALFrame(WALFrame{Kind: FrameRecords, Seq: 5, Values: []string{"abc", "de"}})

	flipped := append([]byte(nil), records...)
	flipped[len(flipped)-1] ^= 0x01 // corrupt the body under the CRC

	badCRC := append([]byte(nil), records...)
	badCRC[2] ^= 0xFF // corrupt the checksum itself

	cases := [][]byte{
		nil,
		{},
		{0},                      // kind zero is invalid
		{FrameAck + 1},           // one past the last kind
		{FrameRecords},           // truncated before the CRC
		{FrameRecords, 1, 2},     // still truncated
		records[:len(records)-1], // torn tail: CRC over a shorter body mismatches
		flipped,
		badCRC,
		append(EncodeWALFrame(WALFrame{Kind: FrameHeartbeat, Seq: 3}), 0xAB), // trailing junk
		{FrameAck}, // missing sequence number
		// A records frame claiming more values than the payload holds
		// must error before allocating (CRC is over the lying body).
		EncodeWALFrame(WALFrame{Kind: FrameRecords, Seq: 0, Values: nil})[:0], // placeholder replaced below
	}
	// Build the lying-count case by hand: kind, a correct CRC over a
	// body whose value count (2^60) exceeds the payload.
	lyingBody := []byte{0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}
	lying := append([]byte{FrameRecords}, binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(lyingBody))...)
	cases[len(cases)-1] = append(lying, lyingBody...)
	cases = append(cases, retiredFrames()...)

	for i, payload := range cases {
		if _, err := ParseWALFrame(payload); err == nil {
			t.Errorf("case %d (% x): no error", i, payload)
		}
	}
}

func TestSubscribeRoundTrip(t *testing.T) {
	for _, want := range []SubscribeReq{
		{FollowerID: "f1", FromSeq: 0},
		{FollowerID: "host-123", FromSeq: 1 << 33},
	} {
		got, err := ParseSubscribe(EncodeSubscribe(want))
		if err != nil {
			t.Fatalf("%+v: %v", want, err)
		}
		if got != want {
			t.Fatalf("round trip %+v -> %+v", want, got)
		}
	}
	// A non-subscribe request is refused by ParseSubscribe.
	if _, err := ParseSubscribe(EncodeRequest(Request{Op: OpStats})); err == nil {
		t.Error("ParseSubscribe accepted a stats request")
	}
}

func TestCheckStreamSeq(t *testing.T) {
	if err := checkStreamSeq(10, 10, 3); err != nil {
		t.Fatalf("contiguous frame rejected: %v", err)
	}
	if err := checkStreamSeq(10, 11, 3); err == nil {
		t.Fatal("gap accepted")
	}
	if err := checkStreamSeq(10, 9, 3); err == nil {
		t.Fatal("regression accepted")
	}
	if err := checkStreamSeq(10, 10, 0); err == nil {
		t.Fatal("empty frame accepted")
	}
}

func TestWALFrameEncodePanicsOnUnknownKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown kind")
		}
	}()
	EncodeWALFrame(WALFrame{Kind: 0xEE})
}

// TestSubscribeLegacyBootFlag replays the handshake of a follower from
// before record-frame catch-up: a raw OpSubscribe with flag byte 1
// (snapshot bootstrap accepted) against a non-empty primary. The
// primary must answer handshake byte 0 — no snapshot image follows —
// and then catch the follower up with record frames from sequence 0
// that rebuild content equal to its own.
func TestSubscribeLegacyBootFlag(t *testing.T) {
	st, err := store.Open(t.TempDir(), &store.Options{DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	vals := make([]string, 500)
	for i := range vals {
		vals[i] = "legacy/" + strings.Repeat("x", i%7) + string(rune('a'+i%26))
	}
	if err := st.AppendBatch(vals[:300]); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendBatch(vals[300:]); err != nil {
		t.Fatal(err)
	}

	srv := New(ForStore(st), &Options{ReplHeartbeat: 50 * time.Millisecond})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
	if err := writeFrame(bw, EncodeRequest(Request{Op: OpSubscribe, Value: "legacy", Max: 1})); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	resp, err := readFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	r := wire.NewRawReader(resp)
	status, head, boot := r.Byte(), r.Uvarint(), r.Byte()
	if err := r.Err(); err != nil || status != statusOK {
		t.Fatalf("handshake status %d, err %v", status, err)
	}
	if head != uint64(len(vals)) || boot != 0 {
		t.Fatalf("handshake head %d boot %d, want head %d boot 0", head, boot, len(vals))
	}

	fol, err := store.Open(t.TempDir(), &store.Options{DisableAutoFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	for next := uint64(0); next < head; {
		payload, err := readFrame(br)
		if err != nil {
			t.Fatalf("after %d records: %v", next, err)
		}
		f, err := ParseWALFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		if f.Kind == FrameHeartbeat {
			continue
		}
		if f.Kind != FrameRecords {
			t.Fatalf("frame kind %d during catch-up, want records", f.Kind)
		}
		if err := checkStreamSeq(next, f.Seq, len(f.Values)); err != nil {
			t.Fatal(err)
		}
		if err := fol.AppendBatch(f.Values); err != nil {
			t.Fatal(err)
		}
		next += uint64(len(f.Values))
	}
	if got, want := fol.Snapshot().ContentFingerprint(), st.Snapshot().ContentFingerprint(); got != want {
		t.Fatalf("follower fingerprint %016x, primary %016x", got, want)
	}
}

// TestFollowerRejectsBootstrapHandshake pins the other direction of
// that compatibility: a primary from before record-frame catch-up
// answers an old follower's subscribe with handshake byte 1 and then a
// snapshot image. A current follower never asks for one, so a 1 is a
// protocol error that drops the connection before any frame applies.
func TestFollowerRejectsBootstrapHandshake(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
		respond := func(fill func(w *wire.Writer)) {
			if _, err := readFrame(br); err != nil {
				return
			}
			w := wire.NewRawWriter()
			w.Byte(statusOK)
			fill(w)
			writeFrame(bw, w.Bytes())
			bw.Flush()
		}
		respond(func(w *wire.Writer) { w.Uvarint(ProtocolVersion) }) // ping
		respond(func(w *wire.Writer) { w.Uvarint(5); w.Byte(1) })    // subscribe
		readFrame(br)                                                // until the follower hangs up
	}()

	st, err := store.Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	logs := make(chan string, 16)
	srv := New(ForStore(st), &Options{SlowOpLog: func(format string, args ...any) {
		select {
		case logs <- fmt.Sprintf(format, args...):
		default:
		}
	}})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	if err := srv.Follow(l.Addr().String(), "current"); err != nil {
		t.Fatal(err)
	}
	defer srv.Promote()
	select {
	case msg := <-logs:
		if !strings.Contains(msg, "handshake byte 1") {
			t.Fatalf("follower logged %q, want a handshake error", msg)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower accepted a bootstrap handshake")
	}
	if n := st.Len(); n != 0 {
		t.Fatalf("follower applied %d records", n)
	}
}
