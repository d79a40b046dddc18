package deploy

import (
	"context"
	"errors"
	"fmt"
	"io"

	"github.com/privconsensus/privconsensus/internal/obs"
	"github.com/privconsensus/privconsensus/internal/protocol"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// dialS1 establishes one peer connection to S1: dial within the retry
// budget, send the hello (the config's caps, capServeCtl on the ctl link,
// and the wire version), and adopt the trace context S1
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
		return nil, fmt.Errorf("deploy: S1 did not answer the peer hello (it closes the link on a wire-version or packing mismatch): %w", err)
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

// followSession is S2's end of the peer-link session: it follows S1's
// session frames on links from connect, handing every begin frame to begin
// — which runs S2's side of the attempt and reports whether the link is
// still clean; false discards it and S1's replay arrives on a fresh one —
// until the end frame. A lost link is re-established within a
// consecutive-failure budget of MaxRetries; when the budget exhausts (S1 is
// gone and the end frame was lost) it returns nil and the caller reports
// its local results. There is no per-frame deadline — an idle link between
// queries is normal, and a dead connection still surfaces as a Recv error
// because S1 closes its end before retrying — so ctx bounds the wait.
func (s *serverSetup) followSession(ctx context.Context, opts ServerOptions,
	connect func() (transport.Conn, error), begin func(context.Context, transport.Conn, sessionFrame) bool) error {
	var peer transport.Conn
	consecFail := 0
	for {
		if err := ctx.Err(); err != nil {
			if peer != nil {
				peer.Close()
			}
			return fmt.Errorf("deploy: run cancelled: %w", err)
		}
		if peer == nil {
			if consecFail > opts.MaxRetries {
				opts.log(levelWarn, "S2 reconnect budget exhausted; reporting local results")
				return nil
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
		frame, err := recvSessionFrame(ctx, peer)
		if err != nil {
			peer.Close()
			peer = nil
			if !attemptRetryable(ctx, err) {
				return fmt.Errorf("deploy: s2 session: %w", err)
			}
			consecFail++
			continue
		}
		consecFail = 0
		if frame.code == ctrlEndSession {
			peer.Close()
			return nil
		}
		if !begin(ctx, peer, frame) {
			peer.Close()
			peer = nil
			consecFail++
		}
	}
}

// followQuery is S2's side of one announced attempt of the query f names,
// whose submissions are in col: count a replay, agree the participant
// set and run Alg. 5 under the attempt deadline. The result carries the
// attempt's local verdict; linkClean says whether the connection survives
// it.
func (s *serverSetup) followQuery(ctx context.Context, opts ServerOptions, rng io.Reader, keys protocol.KeysS2,
	peer transport.Conn, f sessionFrame, col *collector) InstanceResult {
	id := f.instance
	if f.attempt > 0 {
		retriesTotal("s2", "instance").Inc()
		s.journalEvent(opts, obs.Event{Type: obs.EventRetry, Instance: id, Attempt: f.attempt + 1, Note: "instance"})
	}
	actx, cancel := context.WithTimeout(ctx, opts.attemptTimeout())
	defer cancel()
	res := InstanceResult{Instance: id, Outcome: protocol.Outcome{Consensus: false, Label: -1}, Attempts: f.attempt + 1}
	var groups []protocol.Group
	groups, res.Participants, res.Err = s.agreeParticipants(actx, opts, "s2", peer, id, col)
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
