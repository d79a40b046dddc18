package transport

import (
	"context"
	"encoding/hex"
	"math"
	"math/big"
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
