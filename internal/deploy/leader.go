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

// s1Session is S1's end of the peer-link session: the link in hand, the
// status the next begin or end frame reports, and the protocol randomness,
// carried from one query to the next.
type s1Session struct {
	s    *serverSetup
	opts ServerOptions
	ps   *peerSource
	peer transport.Conn
	prev int64
	rng  io.Reader
}

// newS1Session starts the session on the first claimed link.
func newS1Session(s *serverSetup, opts ServerOptions, ps *peerSource, peer transport.Conn) *s1Session {
	return &s1Session{s: s, opts: opts, ps: ps, peer: peer, prev: statusNone, rng: newRNG(opts.Seed)}
}

// run leads one query — id in the wire's instance slot, its submissions in
// row of col, run under keys — to its terminal result: per attempt it claims
// the freshest link, announces a begin frame carrying the previous query's
// authoritative status, agrees the participant set and runs Alg. 5 under the
// attempt deadline. A transient failure discards the connection (it leaves
// unknown bytes in flight) and, budget permitting, retries on a fresh one.
// Every wait is bounded, so run returns even if the peer vanishes.
func (ss *s1Session) run(ctx context.Context, id int, col *collector, row int, keys protocol.KeysS1) InstanceResult {
	s, opts := ss.s, ss.opts
	res := InstanceResult{Instance: id, Outcome: protocol.Outcome{Consensus: false, Label: -1}, Participants: s.cfg.Users}
	for attempt := 0; attempt <= opts.MaxRetries; attempt++ {
		res.Attempts = attempt + 1
		if attempt > 0 {
			retriesTotal("s1", "instance").Inc()
			s.journalEvent(opts, obs.Event{Type: obs.EventRetry, Instance: id, Attempt: attempt + 1, Note: "instance"})
			sleepCtx(ctx, backoffDelay(opts.Backoff, attempt))
		}
		if res.Err = ctx.Err(); res.Err != nil {
			break
		}
		if ss.peer, res.Err = claimPeer(ctx, s, opts, ss.ps, ss.peer, id); res.Err != nil {
			continue
		}
		actx, cancel := context.WithTimeout(ctx, opts.attemptTimeout())
		out, err := func() (*protocol.Outcome, error) {
			if err := sendBegin(actx, ss.peer, id, attempt, ss.prev); err != nil {
				return nil, fmt.Errorf("deploy: begin query %d: %w", id, err)
			}
			groups, p, err := s.agreeParticipants(actx, opts, "s1", ss.peer, id, col, row)
			res.Participants = p
			if err != nil {
				return nil, err
			}
			return runInstance(actx, s, "s1", id, attempt, p, s.cfg.Users-p, opts,
				func(qctx context.Context, meter *transport.Meter) (*protocol.Outcome, error) {
					return protocol.RunS1Groups(qctx, ss.rng, s.cfg, keys, ss.peer, groups, meter)
				})
		}()
		cancel()
		if res.Err = err; err == nil {
			res.Outcome = *out
			break
		}
		if errors.Is(err, protocol.ErrQuorumNotMet) {
			// Nothing went wrong on the wire and both servers reached the
			// same verdict; keep the connection and stop retrying.
			break
		}
		ss.peer.Close()
		ss.peer = nil
		if !attemptRetryable(ctx, err) {
			break
		}
		opts.log(levelWarn, "S1 query %d attempt %d failed, will retry: %v", id, attempt+1, err)
	}
	res.Dropped = s.cfg.Users - res.Participants
	ss.prev = statusOK
	if res.Err != nil {
		if !errors.Is(res.Err, protocol.ErrQuorumNotMet) {
			queriesFailed("s1").Inc()
		}
		opts.log(levelWarn, "S1 query %d failed after %d attempts: %v", id, res.Attempts, res.Err)
		ss.prev = statusFailed
	}
	return res
}

// end delivers the end-of-session frame best-effort, reconnecting within
// the retry budget (claimPeer: never at budget 0), and closes the link. S2
// has a local fallback when the frame is lost, so failure here is logged,
// not fatal.
func (ss *s1Session) end(ctx context.Context) {
	s, opts := ss.s, ss.opts
	var lastErr error
	for try := 0; try <= opts.MaxRetries; try++ {
		if lastErr = ctx.Err(); lastErr != nil {
			break
		}
		if ss.peer, lastErr = claimPeer(ctx, s, opts, ss.ps, ss.peer, -1); lastErr != nil {
			break
		}
		ectx, cancel := context.WithTimeout(ctx, opts.attemptTimeout())
		lastErr = sendEnd(ectx, ss.peer, ss.prev)
		cancel()
		ss.peer.Close() // delivered, or unusable: either way this link is done
		ss.peer = nil
		if lastErr == nil {
			return
		}
		if !attemptRetryable(ctx, lastErr) {
			break
		}
		retriesTotal("s1", "reconnect").Inc()
		s.journalEvent(opts, obs.Event{Type: obs.EventRetry, Instance: -1, Note: "reconnect"})
	}
	opts.log(levelWarn, "S1 could not deliver end-of-session to S2: %v", lastErr)
	if ss.peer != nil {
		ss.peer.Close()
	}
}

// claimPeer returns the link S1's next attempt runs on: the freshest
// reconnection if S2 has redialed, else current. With no link in hand it
// waits one attempt timeout for a redial — unless the retry budget is zero:
// a lost link is then final (a budget-0 S2 never redials), so only a
// reconnection that has already arrived is taken. A failed wait is counted
// and journaled against instance.
func claimPeer(ctx context.Context, s *serverSetup, opts ServerOptions, ps *peerSource,
	current transport.Conn, instance int) (transport.Conn, error) {
	if conn := ps.takeNewer(current); conn != nil {
		return conn, nil
	}
	if opts.MaxRetries == 0 {
		return nil, errPeerGone
	}
	awaitCtx, cancel := context.WithTimeout(ctx, opts.attemptTimeout())
	defer cancel()
	conn, err := ps.await(awaitCtx)
	if err != nil {
		retriesTotal("s1", "reconnect").Inc()
		s.journalEvent(opts, obs.Event{Type: obs.EventRetry, Instance: instance, Note: "reconnect"})
	}
	return conn, err
}
