package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// tcpConn wraps a net.Conn with length-prefixed message framing:
//
//	tcpFrame := payloadLen(4) payload
//
// where payload is the codec output of WriteMessage. Send hands the socket
// a whole frame in one Write, so an unencodable message writes nothing.
// Send encodes into, and Recv reads each payload whole into, a buffer the
// connection keeps, so a frame is decoded without a read per value and a
// payload that runs past its message is refused at that frame.
type tcpConn struct {
	nc net.Conn
	br *bufio.Reader
	// sent is Send's frame buffer, guarded by sendMu; head and payload are
	// Recv's, guarded by recvMu. Each grows to the largest frame up to
	// maxKeptPayload; a larger frame gets a buffer of its own, which goes
	// with it.
	sent    []byte
	head    [4]byte
	payload []byte

	sendMu sync.Mutex
	recvMu sync.Mutex

	closeOnce sync.Once
	closeErr  error
}

// NewTCPConn wraps an established net.Conn in the message framing protocol.
func NewTCPConn(nc net.Conn) Conn {
	return &tcpConn{nc: nc, br: bufio.NewReader(nc)}
}

// Dial connects to a listening peer at addr.
func Dial(ctx context.Context, addr string) (Conn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return NewTCPConn(nc), nil
}

// Listener accepts framed-message connections.
type Listener struct {
	nl     net.Listener
	faults *FaultInjector
}

// SetFaults installs a fault injector; subsequently accepted connections
// are wrapped in its fault schedule. Call before Accept; nil disables
// injection.
func (l *Listener) SetFaults(f *FaultInjector) { l.faults = f }

// Listen opens a TCP listener on addr (use "127.0.0.1:0" for an ephemeral
// test port).
func Listen(addr string) (*Listener, error) {
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &Listener{nl: nl}, nil
}

// Addr returns the bound address.
func (l *Listener) Addr() string { return l.nl.Addr().String() }

// Accept waits for the next inbound connection.
func (l *Listener) Accept() (Conn, error) {
	nc, err := l.nl.Accept()
	if err != nil {
		return nil, fmt.Errorf("transport: accept: %w", err)
	}
	return NewTCPConn(l.faults.WrapNetConn(nc)), nil
}

// Close stops the listener.
func (l *Listener) Close() error { return l.nl.Close() }

func (c *tcpConn) Send(ctx context.Context, msg *Message) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if err := c.applyDeadline(ctx, c.nc.SetWriteDeadline); err != nil {
		return err
	}
	frame, err := appendMessage(append(c.sent[:0], 0, 0, 0, 0), msg)
	if err != nil {
		return err
	}
	if len(frame)-4 <= maxKeptPayload {
		c.sent = frame
	}
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	if _, err := c.nc.Write(frame); err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	wireBytesSent.Add(int64(len(frame)))
	wireMsgsSent.Inc()
	return nil
}

// maxKeptPayload is the largest payload a connection keeps its send and
// receive buffers for: a larger frame gets a buffer of its own, so one
// large frame does not pin its size for the connection's lifetime.
const maxKeptPayload = 1 << 20

// ErrTrailingBytes refuses a frame whose payload runs past its message: the
// length prefix and the message disagree.
var ErrTrailingBytes = errors.New("transport: frame has bytes after its last value")

func (c *tcpConn) Recv(ctx context.Context) (*Message, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	if err := c.applyDeadline(ctx, c.nc.SetReadDeadline); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(c.br, c.head[:]); err != nil {
		return nil, fmt.Errorf("transport: read frame length: %w", err)
	}
	payloadLen := int(binary.BigEndian.Uint32(c.head[:]))
	if payloadLen > maxValueBytes+1024 {
		return nil, fmt.Errorf("transport: frame size %d exceeds limit", payloadLen)
	}
	var payload []byte
	switch {
	case payloadLen > maxKeptPayload:
		payload = make([]byte, payloadLen)
	case payloadLen > cap(c.payload):
		c.payload = make([]byte, payloadLen)
		fallthrough
	default:
		payload = c.payload[:payloadLen]
	}
	if _, err := io.ReadFull(c.br, payload); err != nil {
		return nil, fmt.Errorf("transport: read frame payload: %w", err)
	}
	msg, n, err := DecodeMessage(payload)
	if err != nil {
		return nil, err
	}
	if n != payloadLen {
		return nil, fmt.Errorf("%w: %d of %d payload bytes", ErrTrailingBytes, payloadLen-n, payloadLen)
	}
	wireBytesReceived.Add(int64(payloadLen) + 4)
	wireMsgsReceived.Inc()
	return msg, nil
}

// applyDeadline maps a context deadline onto the socket.
func (c *tcpConn) applyDeadline(ctx context.Context, set func(time.Time) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if dl, ok := ctx.Deadline(); ok {
		return set(dl)
	}
	return set(time.Time{})
}

func (c *tcpConn) Close() error {
	c.closeOnce.Do(func() { c.closeErr = c.nc.Close() })
	return c.closeErr
}
