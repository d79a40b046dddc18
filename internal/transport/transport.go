// Package transport moves protocol messages between parties (users, S1, S2).
//
// It provides an in-process implementation for simulations and tests, a TCP
// implementation (stdlib net) for real deployments, a length-prefixed binary
// codec for sequences of big integers, and per-step byte/time accounting used
// to regenerate the paper's Tables I and II.
package transport

import (
	"context"
	"errors"
	"fmt"
	"math/big"
)

// Message is the unit exchanged between parties. Values carries big-integer
// payloads (ciphertexts, masked plaintexts, bits); Flags carries small
// scalar side-channel-free metadata such as protocol round markers.
type Message struct {
	// Kind tags the protocol message type (for sanity checking).
	Kind MessageKind
	// Values is the big-integer payload.
	Values []*big.Int
	// Flags carries small integers (e.g. comparison outcome bits).
	Flags []int64
}

// MessageKind enumerates protocol message types.
type MessageKind uint8

// Message kinds, one per distinct protocol hop.
const (
	KindShares MessageKind = iota + 1
	KindCipherSeq
	KindPlainSeq
	KindBits
	KindResult
	KindControl
	// KindMux is reserved: it tagged the stream-multiplexing envelope the
	// batched comparison frames made redundant. Nothing sends it and every
	// receiver refuses it; the number stays taken so KindBatch and
	// KindPacked keep theirs (relay frames, fuzz corpora).
	KindMux
	// KindBatch aggregates several same-kind messages into one frame so a
	// single round trip carries a whole phase of sub-protocol exchanges
	// (see batch.go). Batch frames never nest in each other.
	KindBatch
	// KindPacked carries slot-packed submission material on the ingestion
	// path (see internal/ingest): the same shapes as KindShares frames
	// but with P packed ciphertexts per sequence instead of K per-class
	// ones, plus slot-layout flags. A distinct kind keeps the packed and
	// unpacked frame grammars unambiguous (their flag arities overlap).
	KindPacked
)

// String implements fmt.Stringer for diagnostics.
func (k MessageKind) String() string {
	switch k {
	case KindShares:
		return "shares"
	case KindCipherSeq:
		return "cipher-seq"
	case KindPlainSeq:
		return "plain-seq"
	case KindBits:
		return "bits"
	case KindResult:
		return "result"
	case KindControl:
		return "control"
	case KindMux:
		return "mux"
	case KindBatch:
		return "batch"
	case KindPacked:
		return "packed"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Conn is a bidirectional, ordered, reliable message channel between two
// parties. Implementations must be safe for one concurrent sender and one
// concurrent receiver.
type Conn interface {
	// Send transmits msg, blocking until accepted or ctx is done.
	Send(ctx context.Context, msg *Message) error
	// Recv blocks for the next message or until ctx is done.
	Recv(ctx context.Context) (*Message, error)
	// Close releases the connection; pending Recv calls fail.
	Close() error
}

// ErrClosed is returned for operations on a closed connection.
var ErrClosed = errors.New("transport: connection closed")

// ExpectKind receives a message and verifies its kind, a common pattern in
// the lock-step protocol implementations.
func ExpectKind(ctx context.Context, c Conn, want MessageKind) (*Message, error) {
	msg, err := c.Recv(ctx)
	if err != nil {
		return nil, err
	}
	if msg.Kind != want {
		// A kind mismatch is a protocol-level disagreement; reconnecting
		// cannot fix it, so the retry loops must treat it as fatal.
		return nil, MarkFatal(fmt.Errorf("transport: expected %v message, got %v", want, msg.Kind))
	}
	return msg, nil
}

// SendControl transmits a control frame whose Flags begin with code: the
// framing used by the session, admission and epoch handshakes.
func SendControl(ctx context.Context, c Conn, code int64, args ...int64) error {
	return c.Send(ctx, &Message{Kind: KindControl, Flags: append([]int64{code}, args...)})
}

// ExpectControl receives a control frame and verifies its code, returning
// the arguments after the code. Like a kind mismatch, a code mismatch is
// a protocol-level disagreement that reconnecting cannot fix, so it is
// marked fatal for the retry loops.
func ExpectControl(ctx context.Context, c Conn, want int64) ([]int64, error) {
	msg, err := ExpectKind(ctx, c, KindControl)
	if err != nil {
		return nil, err
	}
	if len(msg.Flags) < 1 {
		return nil, MarkFatal(errors.New("transport: control frame without code"))
	}
	if msg.Flags[0] != want {
		return nil, MarkFatal(fmt.Errorf("transport: expected control code %d, got %d", want, msg.Flags[0]))
	}
	return msg.Flags[1:], nil
}

// memConn is one end of an in-process connection pair.
type memConn struct {
	send chan<- *Message
	recv <-chan *Message
	done chan struct{}
	peer *memConn
}

// Pair returns two connected in-process endpoints. Messages sent on one are
// received on the other, in order. Buffering of one message per direction
// keeps strictly alternating protocols from deadlocking on a single
// goroutine boundary while still applying backpressure.
func Pair() (Conn, Conn) {
	ab := make(chan *Message, 1)
	ba := make(chan *Message, 1)
	a := &memConn{send: ab, recv: ba, done: make(chan struct{})}
	b := &memConn{send: ba, recv: ab, done: make(chan struct{})}
	a.peer, b.peer = b, a
	return a, b
}

func (c *memConn) Send(ctx context.Context, msg *Message) error {
	if msg == nil {
		return errors.New("transport: nil message")
	}
	select {
	case <-c.done:
		return ErrClosed
	case <-c.peer.done:
		return ErrClosed
	default:
	}
	select {
	case c.send <- msg:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-c.done:
		return ErrClosed
	case <-c.peer.done:
		return ErrClosed
	}
}

func (c *memConn) Recv(ctx context.Context) (*Message, error) {
	// Drain any buffered message even if the peer has closed.
	select {
	case msg := <-c.recv:
		return msg, nil
	default:
	}
	select {
	case msg := <-c.recv:
		return msg, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.done:
		return nil, ErrClosed
	case <-c.peer.done:
		// Peer closed; one final drain attempt to avoid losing a
		// message raced with the close.
		select {
		case msg := <-c.recv:
			return msg, nil
		default:
			return nil, ErrClosed
		}
	}
}

func (c *memConn) Close() error {
	select {
	case <-c.done:
		return nil
	default:
		close(c.done)
		return nil
	}
}
