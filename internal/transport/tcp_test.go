package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"math/big"
	"math/rand"
	"net"
	"os"
	"strings"
	"testing"
	"time"
)

// framingCases are the messages whose socket bytes testdata/tcp_frames.hex
// pins, one frame per line: flags at both int64 extremes and values at the
// byte boundaries the length-prefixed magnitude encoding turns on.
func framingCases() []*Message {
	two64 := new(big.Int).Lsh(big.NewInt(1), 64)
	wide := make([]byte, 256)
	for i := range wide {
		wide[i] = byte(i*131 + 7)
	}
	wide[0] |= 0x80 // exactly 2048 bits
	return []*Message{
		{Kind: KindControl},
		{Kind: KindControl, Flags: []int64{0, 1, -1, math.MaxInt64, math.MinInt64}},
		{Kind: KindShares, Flags: []int64{7}, Values: []*big.Int{
			big.NewInt(0), big.NewInt(1), big.NewInt(-1), big.NewInt(255), big.NewInt(256),
			new(big.Int).Sub(two64, big.NewInt(1)), two64, new(big.Int).Neg(two64),
		}},
		{Kind: KindCipherSeq, Values: []*big.Int{new(big.Int).SetBytes(wide)}},
		{Kind: KindPacked, Flags: []int64{-3}, Values: []*big.Int{new(big.Int).Neg(new(big.Int).SetBytes(wide)), big.NewInt(0)}},
	}
}

// writeLog is a net.Conn that records every Write it is handed.
type writeLog struct {
	net.Conn
	writes [][]byte
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}

func (w *writeLog) SetWriteDeadline(time.Time) error { return nil }

// TestTCPFramingBytes holds the socket bytes of each frame to a golden
// taken before frames were written in one piece, and holds every Send to
// exactly one Write.
func TestTCPFramingBytes(t *testing.T) {
	raw, err := os.ReadFile("testdata/tcp_frames.hex")
	if err != nil {
		t.Fatal(err)
	}
	golden := strings.Fields(string(raw))
	cases := framingCases()
	if len(golden) != len(cases) {
		t.Fatalf("golden has %d frames, want %d", len(golden), len(cases))
	}
	for i, msg := range cases {
		log := &writeLog{}
		if err := NewTCPConn(log).Send(context.Background(), msg); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(log.writes) != 1 {
			t.Fatalf("frame %d: Send made %d writes, want 1", i, len(log.writes))
		}
		if got := hex.EncodeToString(log.writes[0]); got != golden[i] {
			t.Fatalf("frame %d bytes changed:\n got  %s\n want %s", i, got, golden[i])
		}
		if n := len(log.writes[0]) - 4; n != EncodedSize(msg) {
			t.Fatalf("frame %d: payload %d bytes, EncodedSize says %d", i, n, EncodedSize(msg))
		}
	}
}

// TestSendFailureWritesNothing: a message that cannot be encoded fails
// before any byte reaches the socket, so the next frame arrives intact.
func TestSendFailureWritesNothing(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	sender, receiver := NewTCPConn(a), NewTCPConn(b)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	bad := &Message{Kind: KindShares, Flags: []int64{1}, Values: []*big.Int{big.NewInt(5), nil}}
	if err := sender.Send(ctx, bad); err == nil {
		t.Fatal("Send of a nil value succeeded")
	}
	good := msgOf(KindShares, []int64{2, 3}, 42, -7)
	errc := make(chan error, 1)
	go func() { errc <- sender.Send(ctx, good) }()
	got, err := receiver.Recv(ctx)
	if err != nil {
		t.Fatalf("Recv after a failed Send: %v", err)
	}
	if !sameMessage(got, good) {
		t.Fatalf("received %+v, want %+v", got, good)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestRecvRefusesTrailingBytes sends a frame whose length prefix covers
// three bytes past its message, then a valid frame: the first Recv refuses
// the padded frame with ErrTrailingBytes, and the second reads the valid
// one, because the padding was consumed with the frame it came in.
func TestRecvRefusesTrailingBytes(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	receiver := NewTCPConn(b)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	var payload bytes.Buffer
	if err := WriteMessage(&payload, msgOf(KindShares, []int64{1}, 42)); err != nil {
		t.Fatal(err)
	}
	payload.Write([]byte{0, 0, 0})
	padded := binary.BigEndian.AppendUint32(nil, uint32(payload.Len()))
	padded = append(padded, payload.Bytes()...)
	good := msgOf(KindResult, []int64{7}, -5)
	errc := make(chan error, 1)
	go func() {
		if _, err := a.Write(padded); err != nil {
			errc <- err
			return
		}
		errc <- NewTCPConn(a).Send(ctx, good)
	}()
	if msg, err := receiver.Recv(ctx); !errors.Is(err, ErrTrailingBytes) {
		t.Fatalf("Recv of a padded frame = %+v, %v; want ErrTrailingBytes", msg, err)
	}
	got, err := receiver.Recv(ctx)
	if err != nil {
		t.Fatalf("Recv after a padded frame: %v", err)
	}
	if !sameMessage(got, good) {
		t.Fatalf("received %+v, want %+v", got, good)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestDecodedValuesDoNotAlias decodes values of many widths — zero,
// negative, one word, a word boundary, a non-canonical leading zero byte —
// and grows each in place: no other value may change.
func TestDecodedValuesDoNotAlias(t *testing.T) {
	two64 := new(big.Int).Lsh(big.NewInt(1), 64)
	msg := &Message{Kind: KindCipherSeq, Values: []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(-255), new(big.Int).Sub(two64, big.NewInt(1)),
		two64, new(big.Int).Neg(new(big.Int).Lsh(two64, 64)), big.NewInt(3), new(big.Int).Lsh(two64, 130),
	}}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, msg); err != nil {
		t.Fatal(err)
	}
	// One more value, 255 with a leading zero byte: it decodes into two
	// bytes' worth of words but normalizes to one.
	frame := append(buf.Bytes()[:0:0], buf.Bytes()...)
	binary.BigEndian.PutUint32(frame[1+4:], uint32(len(msg.Values)+1))
	frame = append(frame, 0, 0, 0, 0, 2, 0x00, 0xff)
	got, n, err := DecodeMessage(frame)
	if err != nil || n != len(frame) {
		t.Fatalf("DecodeMessage: %d of %d bytes, %v", n, len(frame), err)
	}
	checkNoAlias(t, got)
}

// replayNetConn is a net.Conn whose reads replay one byte stream forever.
type replayNetConn struct {
	net.Conn
	stream []byte
	off    int
}

func (c *replayNetConn) Read(p []byte) (int, error) {
	n := copy(p, c.stream[c.off:])
	c.off = (c.off + n) % len(c.stream)
	return n, nil
}

func (c *replayNetConn) SetReadDeadline(time.Time) error { return nil }

// TestRecvAllocations receives a DGK round-1 frame — 56 values of 192 bits
// — and bounds Recv's allocations: the message, its value pointers, its
// values and their word arena; the payload buffer is the connection's.
func TestRecvAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	rng := rand.New(rand.NewSource(1))
	msg := &Message{Kind: KindBits}
	for i := 0; i < 56; i++ {
		v := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 192))
		msg.Values = append(msg.Values, v.SetBit(v, 191, 1))
	}
	log := &writeLog{}
	if err := NewTCPConn(log).Send(context.Background(), msg); err != nil {
		t.Fatal(err)
	}
	conn := NewTCPConn(&replayNetConn{stream: log.writes[0]})
	ctx := context.Background()
	n := testing.AllocsPerRun(100, func() {
		got, err := conn.Recv(ctx)
		if err != nil || len(got.Values) != 56 {
			t.Fatalf("Recv: %v", err)
		}
	})
	if n > 4 {
		t.Errorf("receiving a 56-value frame makes %v allocations, want at most 4", n)
	}
}
