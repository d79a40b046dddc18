package deploy

import (
	"context"
	"fmt"

	"github.com/privconsensus/privconsensus/internal/ingest"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// routes names who serves each party's connections on one listener. A nil
// handler refuses the party: S2 and ingest sinks accept no peer.
type routes struct {
	// peer takes ownership of a peer link whose hello decoded (S1 only); it
	// checks the hello (acceptPeer) and hands the link to its consumer.
	peer func(ctx context.Context, conn transport.Conn, h hello)
	// relay drains one ingestion-tier relay connection.
	relay func(ctx context.Context, conn transport.Conn)
	// user drains one client connection (serveUserConn with the caller's
	// lookup and control hook).
	user func(ctx context.Context, conn transport.Conn) error
}

// acceptLoop classifies inbound connections by their hello frame and hands
// each to its route: it owns hello decoding, the relay capability checks and
// the trace-context reply a tracing user asked for. Errors on individual
// connections are logged and the connection dropped; a failing listener
// aborts via errCh unless ctx has ended.
func (s *serverSetup) acceptLoop(ctx context.Context, opts ServerOptions, r routes, errCh chan<- error) {
	for {
		conn, err := s.l.Accept()
		if err != nil {
			select {
			case <-ctx.Done():
			default:
				select {
				case errCh <- fmt.Errorf("deploy: accept: %w", err):
				default:
				}
			}
			return
		}
		go func(conn transport.Conn) {
			h, err := recvHello(ctx, conn)
			if err != nil {
				opts.log(levelWarn, "dropping connection with bad hello: %v", err)
				conn.Close()
				return
			}
			switch {
			case h.party == partyPeer && r.peer != nil:
				r.peer(ctx, conn, h)
				return // the route owns the link now
			case h.party == partyRelay && r.relay != nil:
				// The capability bit is mandatory so a relay can never feed a
				// server that does not understand combined frames silently,
				// and the packed bit must agree with the server's resolved
				// mode: a mixed tree would silently mix frame grammars.
				switch {
				case h.caps&ingest.CapPresum == 0:
					opts.log(levelWarn, "relay hello without presum capability; dropping")
				case (h.caps&ingest.CapPacked != 0) != s.cfg.Packing:
					opts.log(levelWarn, "relay hello packing capability mismatch (relay packed=%v, server packed=%v); dropping",
						h.caps&ingest.CapPacked != 0, s.cfg.Packing)
				default:
					r.relay(ctx, conn)
				}
			case h.party == partyUser && r.user != nil:
				// A tracing user asked for the run's trace identity; S2
				// answers once S1 has delivered it.
				if h.caps&capTrace != 0 {
					if err := replyTraceContext(ctx, s, conn); err != nil {
						opts.log(levelWarn, "user trace context send failed: %v", err)
						break
					}
				}
				if err := r.user(ctx, conn); err != nil {
					opts.log(levelWarn, "user connection error: %v", err)
				}
			default:
				opts.log(levelWarn, "dropping unexpected party %d hello on this server", h.party)
			}
			conn.Close()
		}(conn)
	}
}

// acceptPeer is S1's half of the peer handshake on a freshly accepted link:
// refuse a hello of another wire version or packing mode — failing the
// peerSource, so the run returns the typed mismatch instead of waiting —
// else answer with the trace context, on every connection, reconnects
// included, so a reset link cannot leave S2 without the trace identity. It
// reports whether the link is usable; if not it is already closed.
func acceptPeer(ctx context.Context, s *serverSetup, ps *peerSource, conn transport.Conn, h hello, opts ServerOptions) bool {
	if err := checkPeerHello(h, s.cfg); err != nil {
		opts.log(levelWarn, "refusing peer hello: %v", err)
		ps.fail(err)
		conn.Close()
		return false
	}
	if err := replyTraceContext(ctx, s, conn); err != nil {
		opts.log(levelWarn, "peer trace context send failed: %v", err)
		conn.Close()
		return false
	}
	return true
}

// replyTraceContext answers a hello with the run's trace ID, blocking
// (bounded by ctx) until the ID is known.
func replyTraceContext(ctx context.Context, s *serverSetup, conn transport.Conn) error {
	id, err := s.trace.get(ctx)
	if err != nil {
		return err
	}
	return sendTraceContext(ctx, conn, id)
}

// serveUserConn drains one client connection until the client closes: the
// whole untrusted client surface of a server. Submit frames are decoded and
// checked in the server's rules (ingest.Rules.UserFrame) and recorded in the
// collector that lookup resolves the frame's instance slot to (nil is the
// counted unknown-query rejection); replays after a reconnect are
// deduplicated there, and a rejected frame never drops the connection, so
// one hostile frame cannot suppress later valid ones. A done frame is
// answered with the ack. Every submission recorded here is owed to its
// collector until that ack is out or the connection is gone, so a release
// never cancels an exchange still in flight (collector.owe). Any other
// control frame goes to control, if the server has one (S1's admission and
// result-wait frames); without one it ends the connection.
func (s *serverSetup) serveUserConn(ctx context.Context, conn transport.Conn,
	lookup func(id int) *collector,
	control func(ctx context.Context, conn transport.Conn, flags []int64) error) error {
	rules := ingest.ConfigRules(s.cfg)
	owed := map[*collector]int{} // submissions recorded here since the last ack
	settle := func() {
		for col, n := range owed {
			col.settle(n)
			delete(owed, col)
		}
	}
	defer settle()
	for {
		msg, err := conn.Recv(ctx)
		if err != nil {
			// Clients close after their last frame; a closed connection is
			// the normal end of stream.
			return nil //nolint:nilerr // EOF-equivalent by protocol design
		}
		if msg.Kind == transport.KindControl {
			switch {
			case len(msg.Flags) >= 1 && msg.Flags[0] == ctrlUploadDone:
				user := int64(-1)
				if len(msg.Flags) >= 2 {
					user = msg.Flags[1]
				}
				if err := transport.SendControl(ctx, conn, ctrlUploadAck, user); err != nil {
					return nil //nolint:nilerr // client gone; it will retry
				}
				settle()
			case control != nil:
				if err := control(ctx, conn, msg.Flags); err != nil {
					return err
				}
			default:
				return fmt.Errorf("deploy: unexpected control frame %v on a user connection", msg.Flags)
			}
			continue
		}
		f, err := rules.UserFrame(msg)
		var col *collector
		if err == nil {
			if col = lookup(f.Instance); col == nil {
				err = ingest.UnknownQuery(f.Instance)
			}
		}
		if err != nil {
			_ = rejectSubmission(s.rejected, err)
			continue // counted; keep serving valid frames
		}
		col.owe()
		if col.add(f) != nil {
			col.settle(1) // an idempotent replay, or counted and excluded
			continue
		}
		owed[col]++
	}
}
