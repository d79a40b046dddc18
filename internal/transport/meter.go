package transport

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Meter accumulates per-step traffic statistics: bytes and message counts in
// each direction plus wall-clock time attributed to each step. It drives the
// reproduction of Tables I (per-step running time) and II (per-step message
// size). Meter is safe for concurrent use. Traffic is also fed into the
// process-wide obs registry (see metrics.go).
type Meter struct {
	mu    sync.Mutex
	steps map[string]*StepStats
	obs   map[string]*stepCounters
}

// StepStats aggregates traffic and timing for one protocol step.
type StepStats struct {
	Step          string
	BytesSent     int64
	BytesReceived int64
	MsgsSent      int64
	MsgsReceived  int64
	// Rounds counts completed send-then-receive volleys: a receive that
	// follows at least one send closes a round.
	Rounds  int64
	Elapsed time.Duration

	lastWasSend bool
}

// NewMeter returns an empty meter.
func NewMeter() *Meter {
	return &Meter{steps: make(map[string]*StepStats)}
}

// get returns the stats bucket for step, creating it if needed.
// Callers must hold mu.
func (m *Meter) get(step string) *StepStats {
	s, ok := m.steps[step]
	if !ok {
		s = &StepStats{Step: step}
		m.steps[step] = s
	}
	return s
}

// RecordSend attributes a sent message of size bytes to step.
func (m *Meter) RecordSend(step string, bytes int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.get(step)
	s.BytesSent += int64(bytes)
	s.MsgsSent++
	s.lastWasSend = true
	c := m.countersFor(step)
	c.bytesSent.Add(int64(bytes))
	c.msgsSent.Inc()
}

// RecordRecv attributes a received message of size bytes to step.
func (m *Meter) RecordRecv(step string, bytes int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.get(step)
	s.BytesReceived += int64(bytes)
	s.MsgsReceived++
	c := m.countersFor(step)
	c.bytesReceived.Add(int64(bytes))
	c.msgsReceived.Inc()
	if s.lastWasSend {
		s.Rounds++
		s.lastWasSend = false
		c.rounds.Inc()
	}
}

// RecordElapsed adds wall time to step.
func (m *Meter) RecordElapsed(step string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.get(step).Elapsed += d
}

// Snapshot returns a copy of the per-step stats, sorted by step name.
func (m *Meter) Snapshot() []StepStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]StepStats, 0, len(m.steps))
	for _, s := range m.steps {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Step < out[j].Step })
	return out
}

// Step returns a copy of a single step's stats and whether it exists.
func (m *Meter) Step(step string) (StepStats, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.steps[step]
	if !ok {
		return StepStats{}, false
	}
	return *s, true
}

// Totals sums every step's traffic into one StepStats with Step == "total".
func (m *Meter) Totals() StepStats {
	t := StepStats{Step: "total"}
	for _, s := range m.Snapshot() {
		t.BytesSent += s.BytesSent
		t.BytesReceived += s.BytesReceived
		t.MsgsSent += s.MsgsSent
		t.MsgsReceived += s.MsgsReceived
		t.Rounds += s.Rounds
		t.Elapsed += s.Elapsed
	}
	return t
}

// String renders one line per step, sorted by step name — deterministic
// across runs, so it is usable in golden tests and log output.
func (m *Meter) String() string {
	var b strings.Builder
	for i, s := range m.Snapshot() {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%s: sent=%dB/%d recvd=%dB/%d rounds=%d elapsed=%v",
			s.Step, s.BytesSent, s.MsgsSent, s.BytesReceived, s.MsgsReceived,
			s.Rounds, s.Elapsed.Round(time.Microsecond))
	}
	return b.String()
}

// meteredConn wraps a Conn, attributing traffic to a step label that the
// protocol layer updates as it advances through Alg. 5's steps.
type meteredConn struct {
	inner Conn
	meter *Meter

	mu   sync.Mutex
	step string
}

// Metered wraps conn so all traffic is recorded in meter under a step label
// settable via SetStep. If meter is nil, conn is returned unwrapped.
func Metered(conn Conn, meter *Meter, step string) *MeteredConn {
	return &MeteredConn{meteredConn{inner: conn, meter: meter, step: step}}
}

// MeteredConn is a Conn that attributes traffic to protocol steps.
type MeteredConn struct {
	meteredConn
}

var _ Conn = (*MeteredConn)(nil)

// SetStep changes the step label applied to subsequent traffic.
func (c *MeteredConn) SetStep(step string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.step = step
}

// currentStep returns the active step label.
func (c *MeteredConn) currentStep() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.step
}

// Send transmits msg and records its encoded size.
func (c *MeteredConn) Send(ctx context.Context, msg *Message) error {
	if err := c.inner.Send(ctx, msg); err != nil {
		return err
	}
	if c.meter != nil {
		c.meter.RecordSend(c.currentStep(), EncodedSize(msg))
	}
	return nil
}

// Recv receives the next message and records its encoded size.
func (c *MeteredConn) Recv(ctx context.Context) (*Message, error) {
	msg, err := c.inner.Recv(ctx)
	if err != nil {
		return nil, err
	}
	if c.meter != nil {
		c.meter.RecordRecv(c.currentStep(), EncodedSize(msg))
	}
	return msg, nil
}

// Close closes the underlying connection.
func (c *MeteredConn) Close() error { return c.inner.Close() }
