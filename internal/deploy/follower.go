package deploy

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/privconsensus/privconsensus/internal/obs"
	"github.com/privconsensus/privconsensus/internal/protocol"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// dialS1 establishes one peer connection to S1: dial within the retry
// budget, send the hello (the config's caps, the serve-mode bits naming the
// link, if any, and the wire version), and adopt the trace context S1
// answers every accepted hello with. Reconnections replay the trace frame;
// adoption is idempotent, so replays after the first are no-ops.
func (s *serverSetup) dialS1(ctx context.Context, opts ServerOptions, linkCaps, seed int64) (transport.Conn, error) {
	d := transport.Dialer{
		Attempts:       opts.MaxRetries + 1,
		Backoff:        opts.Backoff,
		AttemptTimeout: opts.attemptTimeout(),
		Seed:           seed,
		Faults:         s.faults,
	}
	conn, err := d.Dial(ctx, opts.PeerAddr)
	if err != nil {
		return nil, fmt.Errorf("deploy: dial S1: %w", err)
	}
	if err := sendHello(ctx, conn, partyPeer, peerCaps(s.cfg)|linkCaps); err != nil {
		conn.Close()
		return nil, err
	}
	id, err := recvTraceContext(ctx, conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("deploy: S1 did not answer the peer hello (it closes the link on a wire-version, packing or serve-mode mismatch): %w", err)
	}
	s.adoptTraceID(id, opts)
	return conn, nil
}

// s2Seed derives S2's protocol stream from the run seed: distinct from S1's
// when seeded; seed 0 must stay crypto/rand.
func s2Seed(seed int64) int64 {
	if seed != 0 {
		seed++
	}
	return seed
}

// beginHandler resolves one begin frame to a query and runs S2's side of the
// attempt on peer (followQuery). keep reports whether the link is still
// clean — false discards it and S1's replay arrives on a fresh one; a
// non-nil error aborts the whole session.
type beginHandler func(ctx context.Context, peer transport.Conn, f sessionFrame) (keep bool, err error)

// followSession is S2's end of the peer-link session: it follows S1's
// session frames on peer (nil: dial first), handing every begin frame to
// begin, until the end frame, whose status it returns. A lost link is
// re-established through connect within a consecutive-failure budget of
// MaxRetries; when the budget exhausts (S1 is gone and the end frame was
// lost) it returns statusNone and the caller assembles its report from local
// results. frameTimeout bounds the wait for each session frame; 0 waits
// indefinitely — a dead connection still surfaces as a Recv error, S1 closes
// its end before retrying.
func (s *serverSetup) followSession(ctx context.Context, opts ServerOptions, peer transport.Conn,
	connect func() (transport.Conn, error), frameTimeout time.Duration, begin beginHandler) (int64, error) {
	consecFail := 0
	for {
		if err := ctx.Err(); err != nil {
			if peer != nil {
				peer.Close()
			}
			return statusNone, fmt.Errorf("deploy: run cancelled: %w", err)
		}
		if peer == nil {
			if consecFail > opts.MaxRetries {
				opts.log(levelWarn, "S2 reconnect budget exhausted; assembling report from local results")
				return statusNone, nil
			}
			if consecFail > 0 {
				retriesTotal("s2", "reconnect").Inc()
				s.journalEvent(opts, obs.Event{Type: obs.EventRetry, Instance: -1, Note: "reconnect"})
			}
			sleepCtx(ctx, backoffDelay(opts.Backoff, consecFail))
			var err error
			if peer, err = connect(); err != nil {
				consecFail++
				opts.log(levelWarn, "S2 reconnect to S1 failed: %v", err)
				continue
			}
			opts.log(levelDebug, "S2 protocol link to S1 established")
		}
		fctx, cancel := ctx, func() {}
		if frameTimeout > 0 {
			fctx, cancel = context.WithTimeout(ctx, frameTimeout)
		}
		frame, err := recvSessionFrame(fctx, peer)
		cancel()
		if err != nil {
			peer.Close()
			peer = nil
			if !attemptRetryable(ctx, err) {
				return statusNone, fmt.Errorf("deploy: s2 session: %w", err)
			}
			consecFail++
			continue
		}
		consecFail = 0
		if frame.code == ctrlEndSession {
			peer.Close()
			return frame.status, nil
		}
		keep, err := begin(ctx, peer, frame)
		if !keep {
			peer.Close()
			peer = nil
			consecFail++
		}
		if err != nil {
			return statusNone, err
		}
	}
}

// followQuery is S2's side of one announced attempt of the query f names,
// whose submissions are row of col: count a replay, agree the participant
// set and run Alg. 5 under the attempt deadline. The result carries the
// attempt's local verdict; linkClean says whether the connection survives
// it.
func (s *serverSetup) followQuery(ctx context.Context, opts ServerOptions, rng io.Reader, keys protocol.KeysS2,
	peer transport.Conn, f sessionFrame, col *collector, row int) InstanceResult {
	id := f.instance
	if f.attempt > 0 {
		retriesTotal("s2", "instance").Inc()
		s.journalEvent(opts, obs.Event{Type: obs.EventRetry, Instance: id, Attempt: f.attempt + 1, Note: "instance"})
	}
	actx, cancel := context.WithTimeout(ctx, opts.attemptTimeout())
	defer cancel()
	res := InstanceResult{Instance: id, Outcome: protocol.Outcome{Consensus: false, Label: -1}, Attempts: f.attempt + 1}
	var groups []protocol.Group
	groups, res.Participants, res.Err = s.agreeParticipants(actx, opts, "s2", peer, id, col, row)
	res.Dropped = s.cfg.Users - res.Participants
	if res.Err != nil {
		return res
	}
	out, err := runInstance(actx, s, "s2", id, f.attempt, res.Participants, res.Dropped, opts,
		func(qctx context.Context, meter *transport.Meter) (*protocol.Outcome, error) {
			return protocol.RunS2Groups(qctx, rng, s.cfg, keys, peer, groups, meter)
		})
	if res.Err = err; err == nil {
		res.Outcome = *out
	}
	return res
}

// linkClean reports whether an attempt that ended with err left the peer
// link usable: it completed, or both servers agreed, on a clean wire, that
// the query cannot run.
func linkClean(err error) bool {
	return err == nil || errors.Is(err, protocol.ErrQuorumNotMet)
}
