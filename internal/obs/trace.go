package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	mrand "math/rand"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one protocol phase of a query: wall time plus the traffic and
// operation counts attributed to it.
type Span struct {
	// Phase is the protocol step label, e.g. "secure-comparison(4)".
	Phase string
	// Start is when the phase opened.
	Start time.Time
	// Duration is the phase wall time (zero while the span is open).
	Duration time.Duration
	// BytesSent / BytesReceived are the peer-link traffic attributed to
	// the phase (bridged from the transport meter).
	BytesSent     int64
	BytesReceived int64
	// MsgsSent / MsgsReceived count peer-link frames.
	MsgsSent     int64
	MsgsReceived int64
	// Rounds counts completed send→receive volleys in the phase.
	Rounds int64
	// Ops counts watched operations (e.g. paillier_encrypt) that ran
	// while the span was open. In an in-process simulation both servers
	// share the process-wide counters, so Ops covers both parties.
	Ops map[string]int64
	// Err records the failure that ended the phase, if any.
	Err string
}

// TraceEvent is a point annotation recorded during a query — a quorum
// verdict, a threshold correction δ, anything that happened at an instant
// rather than over a phase. Like spans, events carry quantities only.
type TraceEvent struct {
	// Time is when the event happened.
	Time time.Time
	// Type names the event (journal Event* constants).
	Type string
	// Detail is the human-readable payload, e.g. "delta=12".
	Detail string
}

// QueryTrace is the structured record of one protocol query: one span per
// phase, in execution order.
type QueryTrace struct {
	// ID identifies the query, e.g. "s1-q3".
	ID string
	// Start / Duration cover the whole query.
	Start    time.Time
	Duration time.Duration
	// Spans holds the per-phase records in the order the phases ran.
	Spans []Span
	// Events holds point annotations in recording order.
	Events []TraceEvent `json:",omitempty"`
	// Result is a short outcome label set by the caller, e.g.
	// "consensus label=4" or "no-consensus".
	Result string
	// Err is the failure that aborted the query, if any.
	Err string
	// Attempt is which delivery attempt of the query this trace records
	// (1 = first try). Retried instances produce one trace per attempt.
	Attempt int
	// Participants is how many users' submissions were aggregated into
	// this query; Dropped is how many configured users were excluded
	// (dropout, rejection, or quorum release). Zero Participants means
	// participation tracking was not set for this trace.
	Participants int
	Dropped      int
}

// TotalBytes sums the per-phase traffic.
func (q *QueryTrace) TotalBytes() (sent, received int64) {
	for _, s := range q.Spans {
		sent += s.BytesSent
		received += s.BytesReceived
	}
	return sent, received
}

// Span returns the span for a phase and whether it exists.
func (q *QueryTrace) Span(phase string) (Span, bool) {
	for _, s := range q.Spans {
		if s.Phase == phase {
			return s, true
		}
	}
	return Span{}, false
}

// Summary renders the trace as one log line: total time and traffic
// followed by per-phase timings. It contains only quantities — never
// plaintext values, shares or keys.
func (q *QueryTrace) Summary() string {
	var b strings.Builder
	sent, recvd := q.TotalBytes()
	fmt.Fprintf(&b, "query=%s total=%v tx=%dB rx=%dB result=%q", q.ID, q.Duration.Round(time.Microsecond), sent, recvd, q.Result)
	if q.Attempt > 1 {
		fmt.Fprintf(&b, " attempt=%d", q.Attempt)
	}
	if q.Dropped > 0 {
		fmt.Fprintf(&b, " participants=%d dropped=%d", q.Participants, q.Dropped)
	}
	if q.Err != "" {
		fmt.Fprintf(&b, " err=%q", q.Err)
	}
	for _, s := range q.Spans {
		fmt.Fprintf(&b, " %s=%v/%dB", s.Phase, s.Duration.Round(time.Microsecond), s.BytesSent+s.BytesReceived)
	}
	return b.String()
}

// Tracer records one QueryTrace. It is safe for concurrent use; phases are
// expected to open and close in protocol order (the engine runs them
// sequentially), but IO attribution may arrive from transport goroutines.
type Tracer struct {
	mu      sync.Mutex
	trace   QueryTrace
	open    string // phase of the currently open span, "" if none
	watched map[string]*Counter
	opsAt   map[string]int64 // watched counter values when the open span started
	clock   func() time.Time
}

// NewTracer starts a trace for one query.
func NewTracer(id string) *Tracer {
	t := &Tracer{
		watched: make(map[string]*Counter),
		clock:   time.Now,
	}
	t.trace.ID = id
	t.trace.Start = t.clock()
	return t
}

// Watch registers a counter whose per-phase deltas are recorded in each
// span's Ops map under the given short name. Call before the first phase.
func (t *Tracer) Watch(shortName string, c *Counter) {
	if c == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.watched[shortName] = c
}

// SetAttempt records which delivery attempt this trace covers (1-based).
func (t *Tracer) SetAttempt(attempt int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trace.Attempt = attempt
}

// SetParticipants records how many users were aggregated into the traced
// query and how many were excluded.
func (t *Tracer) SetParticipants(participants, dropped int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trace.Participants = participants
	t.trace.Dropped = dropped
}

// RecordEvent appends a point annotation to the trace.
func (t *Tracer) RecordEvent(typ, detail string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trace.Events = append(t.trace.Events, TraceEvent{Time: t.clock(), Type: typ, Detail: detail})
}

// StartPhase opens a span. An open span is implicitly ended first, so a
// failing phase that never reaches EndPhase still shows up as open (see
// OpenPhase) rather than silently vanishing.
func (t *Tracer) StartPhase(phase string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.open != "" {
		t.endLocked(t.open, nil)
	}
	t.open = phase
	t.trace.Spans = append(t.trace.Spans, Span{Phase: phase, Start: t.clock()})
	if len(t.watched) > 0 {
		t.opsAt = make(map[string]int64, len(t.watched))
		for name, c := range t.watched {
			t.opsAt[name] = c.Value()
		}
	}
}

// EndPhase closes the named span, recording its duration, watched op deltas
// and (when err != nil) the failure.
func (t *Tracer) EndPhase(phase string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.endLocked(phase, err)
}

// endLocked closes the span if it is the open one. Callers hold mu.
func (t *Tracer) endLocked(phase string, err error) {
	if t.open != phase {
		return
	}
	t.open = ""
	s := &t.trace.Spans[len(t.trace.Spans)-1]
	s.Duration = t.clock().Sub(s.Start)
	if err != nil {
		s.Err = err.Error()
	}
	if len(t.watched) > 0 {
		s.Ops = make(map[string]int64, len(t.watched))
		for name, c := range t.watched {
			if d := c.Value() - t.opsAt[name]; d > 0 {
				s.Ops[name] = d
			}
		}
		if len(s.Ops) == 0 {
			s.Ops = nil
		}
	}
}

// OpenPhase returns the phase of the currently open span, or the phase of
// the last span that recorded an error, or "". Deploy uses it to name the
// failing phase in surfaced errors.
func (t *Tracer) OpenPhase() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.open != "" {
		return t.open
	}
	for i := len(t.trace.Spans) - 1; i >= 0; i-- {
		if t.trace.Spans[i].Err != "" {
			return t.trace.Spans[i].Phase
		}
	}
	return ""
}

// SetPhaseIO attributes peer-link traffic to a phase's span, creating the
// span if the phase never opened (e.g. traffic metered outside any phase).
// The transport meter bridge calls this once per step after the run.
func (t *Tracer) SetPhaseIO(phase string, bytesSent, bytesReceived, msgsSent, msgsReceived, rounds int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.trace.Spans {
		if t.trace.Spans[i].Phase == phase {
			s := &t.trace.Spans[i]
			s.BytesSent = bytesSent
			s.BytesReceived = bytesReceived
			s.MsgsSent = msgsSent
			s.MsgsReceived = msgsReceived
			s.Rounds = rounds
			return
		}
	}
	t.trace.Spans = append(t.trace.Spans, Span{
		Phase:     phase,
		BytesSent: bytesSent, BytesReceived: bytesReceived,
		MsgsSent: msgsSent, MsgsReceived: msgsReceived,
		Rounds: rounds,
	})
}

// Finish closes any open span and seals the trace with a result label and
// optional error.
func (t *Tracer) Finish(result string, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.open != "" {
		t.endLocked(t.open, err)
	}
	t.trace.Duration = t.clock().Sub(t.trace.Start)
	t.trace.Result = result
	if err != nil {
		t.trace.Err = err.Error()
	}
}

// Trace returns a deep copy of the trace recorded so far.
func (t *Tracer) Trace() *QueryTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.trace
	out.Spans = make([]Span, len(t.trace.Spans))
	for i, s := range t.trace.Spans {
		out.Spans[i] = s
		if s.Ops != nil {
			ops := make(map[string]int64, len(s.Ops))
			for k, v := range s.Ops {
				ops[k] = v
			}
			out.Spans[i].Ops = ops
		}
	}
	out.Events = append([]TraceEvent(nil), t.trace.Events...)
	return &out
}

// OpNames returns the sorted short names of watched counters, for stable
// rendering.
func (t *Tracer) OpNames() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.watched))
	for n := range t.watched {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// tracerKey is the context key for the ambient tracer.
type tracerKey struct{}

// WithTracer attaches a tracer to a context; the protocol engine records
// phase spans into it.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, t)
}

// TracerFrom returns the ambient tracer, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// MintTraceID draws a run's non-zero 63-bit trace ID: deterministic when
// seed is non-zero (from the seed+8191 stream, off the protocol's own),
// crypto/rand otherwise.
func MintTraceID(seed int64) (int64, error) {
	var rng io.Reader = crand.Reader
	if seed != 0 {
		rng = mrand.New(mrand.NewSource(seed + 8191))
	}
	var b [8]byte
	for {
		if _, err := io.ReadFull(rng, b[:]); err != nil {
			return 0, fmt.Errorf("obs: mint trace id: %w", err)
		}
		if id := int64(binary.BigEndian.Uint64(b[:]) &^ (1 << 63)); id != 0 {
			return id, nil
		}
	}
}

// TraceIDString renders a trace ID for journals and logs ("t-%016x"; ""
// for 0, an untraced run).
func TraceIDString(id int64) string {
	if id == 0 {
		return ""
	}
	return fmt.Sprintf("t-%016x", uint64(id))
}
