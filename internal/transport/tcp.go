package transport

import (
	"bufio"
	"context"
	"encoding/binary"
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
type tcpConn struct {
	nc net.Conn
	br *bufio.Reader

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
	frame, err := encode(msg, 4)
	if err != nil {
		return err
	}
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	if _, err := c.nc.Write(frame); err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	wireBytesSent.Add(int64(len(frame)))
	wireMsgsSent.Inc()
	return nil
}

func (c *tcpConn) Recv(ctx context.Context) (*Message, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	if err := c.applyDeadline(ctx, c.nc.SetReadDeadline); err != nil {
		return nil, err
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(c.br, lenBuf[:]); err != nil {
		return nil, fmt.Errorf("transport: read frame length: %w", err)
	}
	payloadLen := binary.BigEndian.Uint32(lenBuf[:])
	if payloadLen > maxValueBytes+1024 {
		return nil, fmt.Errorf("transport: frame size %d exceeds limit", payloadLen)
	}
	msg, err := ReadMessage(io.LimitReader(c.br, int64(payloadLen)))
	if err != nil {
		return nil, err
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
