package deploy

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/privconsensus/privconsensus/internal/obs"
	"github.com/privconsensus/privconsensus/internal/protocol"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// The peer-link session. S1 leads (leader.go): it announces each query —
// named by its query ID in the begin frame's instance slot — before running
// it and closes the session with an end frame; S2 follows (follower.go).
// Both frames are idempotent — a query announced twice (because an attempt
// died mid-run) is simply re-executed by S2, and the consensus outcome is a
// deterministic function of the collected submissions, so replays always
// reproduce the same label. Each server reports its own verdict per query.
// A failed attempt always discards the connection; retries run on a fresh
// one, so no attempt ever sees another attempt's leftover bytes.
// ServerOptions.MaxRetries is only the budget: at 0 the session runs each
// query's single attempt.

// Session control codes, carried in Flags[0] of KindControl frames
// exchanged after the hello.
const (
	ctrlBeginInstance int64 = 100 // [code, instance, attempt] S1→S2
	ctrlEndSession    int64 = 101 // [code]                    S1→S2
	ctrlUploadDone    int64 = 102 // [code, user]              user→server
	ctrlUploadAck     int64 = 103 // [code, user]              server→user
)

// retriesTotal counts retry attempts by role and scope (scope: instance,
// reconnect, upload).
func retriesTotal(role, scope string) *obs.Counter {
	return obs.Default.Counter("retries_total",
		"Retry attempts, by role and scope.",
		obs.L("role", role), obs.L("scope", scope))
}

// queriesFailed counts query instances that exhausted their retry budget.
func queriesFailed(role string) *obs.Counter {
	return obs.Default.Counter("queries_failed_total",
		"Query instances that failed after exhausting the retry budget.",
		obs.L("role", role))
}

// sendBegin announces (or re-announces) attempt a of query instance.
func sendBegin(ctx context.Context, conn transport.Conn, instance, attempt int) error {
	return transport.SendControl(ctx, conn, ctrlBeginInstance, int64(instance), int64(attempt))
}

// sendEnd closes the session.
func sendEnd(ctx context.Context, conn transport.Conn) error {
	return transport.SendControl(ctx, conn, ctrlEndSession)
}

// sessionFrame is a decoded begin or end frame.
type sessionFrame struct {
	code     int64
	instance int
	attempt  int
}

// recvSessionFrame reads the next begin/end frame on the peer link.
func recvSessionFrame(ctx context.Context, conn transport.Conn) (sessionFrame, error) {
	msg, err := transport.ExpectKind(ctx, conn, transport.KindControl)
	if err != nil {
		return sessionFrame{}, err
	}
	switch {
	case len(msg.Flags) == 3 && msg.Flags[0] == ctrlBeginInstance:
		return sessionFrame{code: ctrlBeginInstance, instance: int(msg.Flags[1]), attempt: int(msg.Flags[2])}, nil
	case len(msg.Flags) == 1 && msg.Flags[0] == ctrlEndSession:
		return sessionFrame{code: ctrlEndSession}, nil
	}
	return sessionFrame{}, transport.MarkFatal(fmt.Errorf("deploy: malformed session frame %v", msg.Flags))
}

// peerSource hands the freshest peer connection to the S1 session loop.
// The accept loop offers reconnections as they arrive; older unclaimed
// connections are closed, so the consumer always converges on the newest
// link after a reset. A peer hello the accept loop refused (another wire
// version or packing mode) fails the source for good: a reconnect cannot
// fix a configuration disagreement.
type peerSource struct {
	mu      sync.Mutex
	pending transport.Conn
	err     error
	notify  chan struct{}
}

func newPeerSource() *peerSource {
	return &peerSource{notify: make(chan struct{}, 1)}
}

// offer installs a new peer connection, replacing (and closing) any
// unclaimed one.
func (ps *peerSource) offer(conn transport.Conn) {
	ps.mu.Lock()
	if ps.pending != nil {
		ps.pending.Close()
	}
	ps.pending = conn
	ps.mu.Unlock()
	ps.wake()
}

// fail makes every current and future await return err; the first wins.
func (ps *peerSource) fail(err error) {
	ps.mu.Lock()
	if ps.err == nil {
		ps.err = err
	}
	ps.mu.Unlock()
	ps.wake()
}

func (ps *peerSource) wake() {
	select {
	case ps.notify <- struct{}{}:
	default:
	}
}

// await blocks for a peer connection, bounded by ctx.
func (ps *peerSource) await(ctx context.Context) (transport.Conn, error) {
	for {
		ps.mu.Lock()
		conn, err := ps.pending, ps.err
		ps.pending = nil
		ps.mu.Unlock()
		if conn != nil {
			return conn, nil
		}
		if err != nil {
			return nil, err
		}
		select {
		case <-ps.notify:
		case <-ctx.Done():
			return nil, fmt.Errorf("deploy: waiting for S2: %w", ctx.Err())
		}
	}
}

// takeNewer swaps current for a fresher pending connection if the peer has
// reconnected since current was claimed; otherwise returns current.
func (ps *peerSource) takeNewer(current transport.Conn) transport.Conn {
	ps.mu.Lock()
	conn := ps.pending
	ps.pending = nil
	ps.mu.Unlock()
	if conn == nil {
		return current
	}
	if current != nil {
		current.Close()
	}
	return conn
}

// close releases any unclaimed connection.
func (ps *peerSource) close() {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.pending != nil {
		ps.pending.Close()
		ps.pending = nil
	}
}

// InstanceResult is the per-query-instance entry of a deployment Report.
type InstanceResult struct {
	// Instance is the query instance index.
	Instance int
	// Outcome is the consensus outcome; meaningful only when Err is nil.
	// Failed instances carry the placeholder {Consensus: false, Label: -1}.
	Outcome protocol.Outcome
	// Attempts is how many attempts the instance took (1 = no retries).
	Attempts int
	// Participants is how many users' submissions the instance aggregated;
	// Dropped is how many configured users were excluded (dropout,
	// rejection, or quorum release). Participants == Users and Dropped == 0
	// under full participation.
	Participants int
	Dropped      int
	// Err is non-nil when the instance exhausted its retry budget (or, for
	// partial participation, when it is protocol.ErrQuorumNotMet); it names
	// the failing phase.
	Err error
}

// Report is S2's result of a run: one entry per pre-registered query, in
// query order, each either succeeded or cleanly failed.
type Report struct {
	Results []InstanceResult
}

// attemptRetryable decides whether a failed instance attempt may be
// retried: the parent context must still be live (a cancelled run stops
// immediately) and the error must classify as transient I/O. Per-attempt
// deadline expiry counts as transient — recycling stalled attempts is what
// the deadline is for.
func attemptRetryable(parent context.Context, err error) bool {
	if parent.Err() != nil {
		return false
	}
	return transport.IsRetryable(err)
}

// backoffDelay is the sleep before retry attempt a (1-based), doubling
// from base and capped at 16×base; a first attempt (a <= 0) does not wait.
func backoffDelay(base time.Duration, a int) time.Duration {
	if a <= 0 {
		return 0
	}
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	d := base << uint(a-1)
	if maxD := 16 * base; d > maxD || d <= 0 {
		d = maxD
	}
	return d
}

// sleepCtx sleeps for d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// errPeerGone marks a peer link that is lost with no reconnect budget left
// to wait for another.
var errPeerGone = errors.New("deploy: peer reconnect budget exhausted")
