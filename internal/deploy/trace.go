package deploy

import (
	"context"
	"fmt"
	"sync"

	"github.com/privconsensus/privconsensus/internal/obs"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// Cross-process query tracing. S1 mints one trace ID per run and pushes it
// in a ctrl frame,
//
//	trace := Message{Kind: KindControl, Flags: [106, traceID]}
//
// sent once per connection right after the hello — S1→S2 on every peer
// connection (reconnects included, so a link reset cannot orphan S2), and
// server→user on any user connection whose hello advertised capTrace. A
// server with ServerOptions.JournalPath set stamps its hash-chained journal
// (internal/obs/journal.go) with that ID and appends a trace-begin anchor
// when it learns it; cmd/trace aligns the processes' clocks on those anchors
// when merging the journals into one timeline. Journaling is each server's
// own choice: one side may journal without the other.

// capTrace is the user-hello capability bit asking the server for the run's
// trace ID. (The peer link needs no bit: S1 always sends the frame.)
const capTrace int64 = 8

// ctrlTraceContext carries the minted trace ID: [code, traceID].
const ctrlTraceContext int64 = 106

// traceState publishes the run's trace ID once it is known. S1 mints it at
// setup; S2 learns it from the first peer connection, and tracing user
// connections accepted before then block (bounded by their ctx) in get.
type traceState struct {
	mu    sync.Mutex
	id    int64
	set   bool
	ready chan struct{}
}

func newTraceState() *traceState {
	return &traceState{ready: make(chan struct{})}
}

// put publishes the ID; only the first call wins. It reports whether this
// call was the one that set it.
func (t *traceState) put(id int64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.set {
		return false
	}
	t.id = id
	t.set = true
	close(t.ready)
	return true
}

// get blocks until the ID is published or ctx ends.
func (t *traceState) get(ctx context.Context) (int64, error) {
	select {
	case <-t.ready:
		t.mu.Lock()
		defer t.mu.Unlock()
		return t.id, nil
	case <-ctx.Done():
		return 0, fmt.Errorf("deploy: waiting for trace context: %w", ctx.Err())
	}
}

// idString returns the published ID rendered for journals ("" if unset or
// untraced).
func (t *traceState) idString() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.set {
		return ""
	}
	return obs.TraceIDString(t.id)
}

// sendTraceContext delivers the trace ID on a fresh connection.
func sendTraceContext(ctx context.Context, conn transport.Conn, id int64) error {
	return conn.Send(ctx, &transport.Message{
		Kind:  transport.KindControl,
		Flags: []int64{ctrlTraceContext, id},
	})
}

// recvTraceContext reads the trace frame that follows a peer hello or a
// capTrace user hello.
func recvTraceContext(ctx context.Context, conn transport.Conn) (int64, error) {
	msg, err := transport.ExpectKind(ctx, conn, transport.KindControl)
	if err != nil {
		return 0, fmt.Errorf("deploy: trace context: %w", err)
	}
	if len(msg.Flags) != 2 || msg.Flags[0] != ctrlTraceContext || msg.Flags[1] < 0 {
		return 0, transport.MarkFatal(fmt.Errorf("deploy: malformed trace context frame %v", msg.Flags))
	}
	return msg.Flags[1], nil
}

// adoptTraceID records a trace identity learned from the wire: the first
// call publishes it and journals the anchor event. Safe on every
// reconnection — later calls are no-ops.
func (s *serverSetup) adoptTraceID(id int64, opts ServerOptions) {
	if !s.trace.put(id) {
		return
	}
	if id == 0 {
		return
	}
	opts.log(levelDebug, "trace context %s adopted", obs.TraceIDString(id))
	if err := s.journal.BeginTrace(obs.TraceIDString(id)); err != nil {
		opts.log(levelWarn, "journal trace anchor failed: %v", err)
	}
}

// journalEvent appends a lifecycle event to the server's journal (no-op
// when journaling is off). Append failures are logged, never fatal:
// observability must not kill a query.
func (s *serverSetup) journalEvent(opts ServerOptions, ev obs.Event) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Append(ev); err != nil {
		opts.log(levelWarn, "journal append failed: %v", err)
	}
}
