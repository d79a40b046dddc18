package deploy

import (
	"context"
	"fmt"
	mrand "math/rand"
	"time"

	"github.com/privconsensus/privconsensus/internal/keystore"
	"github.com/privconsensus/privconsensus/internal/protocol"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// ServeClientOptions configures one serve-mode query client. The client
// drives whole queries: it requests admission from S1, builds and uploads
// every user's encrypted halves for the granted query ID, and blocks on
// the result.
type ServeClientOptions struct {
	// Tenant is the ε-budget account the client's queries bill to.
	Tenant int64
	// S1Addr and S2Addr are the servers' listen addresses.
	S1Addr string
	S2Addr string
	// Seed, when non-zero, makes share/noise/nonce randomness
	// deterministic.
	Seed int64
	// MaxRetries bounds per-phase retries (admission, upload, result
	// wait); every phase is idempotent on the servers, so replays after a
	// lost reply are safe.
	MaxRetries int
	// Backoff is the delay before the first retry (default 50ms),
	// doubling per retry.
	Backoff time.Duration
	// AttemptTimeout bounds each phase attempt (default 2m).
	AttemptTimeout time.Duration
	// FaultSpec, when non-empty, injects deterministic faults into the
	// client's connections. Testing only.
	FaultSpec string
	// LogLevel and Logf mirror UserOptions.
	LogLevel string
	Logf     func(format string, args ...any)
}

// ServeResult is one resolved serve-mode query.
type ServeResult struct {
	// QID is the server-assigned query ID; Epoch the key epoch it was
	// admitted under.
	QID   int
	Epoch int
	// Consensus and Label mirror protocol.Outcome (Label -1 without
	// consensus).
	Consensus bool
	Label     int
	// Attempts is the server-side attempt count for the query.
	Attempts int
	// AdmitWait is the client-observed admission latency: from the first
	// admission dial to the grant, including redials.
	AdmitWait time.Duration
}

// ServeClient submits whole queries to a serve-mode server pair. Not safe
// for concurrent use; run one client per worker (queries pipeline across
// workers — collection of one query overlaps the protocol phases of
// another).
type ServeClient struct {
	*client
	pubs     []*keystore.PublicFile // indexed by epoch
	opts     ServeClientOptions
	nonceRNG *mrand.Rand
}

// NewServeClient validates the per-epoch public key files (one per
// provisioned epoch, matching the servers' key files) and prepares the
// client's randomness streams.
func NewServeClient(pubs []*keystore.PublicFile, opts ServeClientOptions) (*ServeClient, error) {
	if len(pubs) == 0 {
		return nil, fmt.Errorf("deploy: serve client needs at least one epoch public key file")
	}
	for i, pub := range pubs {
		if err := pub.Validate(); err != nil {
			return nil, fmt.Errorf("deploy: epoch %d public keys: %w", i, err)
		}
		if pub.Config != pubs[0].Config {
			return nil, fmt.Errorf("deploy: epoch %d public key config differs from epoch 0", i)
		}
	}
	if opts.Tenant < 0 {
		return nil, fmt.Errorf("deploy: negative tenant %d", opts.Tenant)
	}
	c, err := newClient(pubs[0].Config, ServerOptions{
		Seed: opts.Seed, MaxRetries: opts.MaxRetries, Backoff: opts.Backoff, AttemptTimeout: opts.AttemptTimeout,
		FaultSpec: opts.FaultSpec, LogLevel: opts.LogLevel, Logf: opts.Logf,
	}, "client", capServe, opts.Seed+opts.Tenant+31)
	if err != nil {
		return nil, err
	}
	return &ServeClient{client: c, pubs: pubs, opts: opts,
		nonceRNG: mrand.New(mrand.NewSource(c.noiseSeed ^ 0x5ee6a7e))}, nil
}

// Do runs one whole query: admission, the per-user encrypted uploads for
// the granted query ID, and the blocking result wait. votes[user][class]
// are the users' prediction vectors in [0, 1]. Typed admission refusals
// surface as errors matching ErrBudgetExhausted, ErrDraining,
// ErrOverloaded or ErrServeUnavailable.
func (c *ServeClient) Do(ctx context.Context, votes [][]float64) (*ServeResult, error) {
	if len(votes) != c.cfg.Users {
		return nil, fmt.Errorf("deploy: %d vote vectors for %d users", len(votes), c.cfg.Users)
	}
	nonce := c.nonceRNG.Int63()
	admitStart := time.Now()
	qid, epoch, err := c.admit(ctx, nonce)
	if err != nil {
		return nil, err
	}
	admitWait := time.Since(admitStart)
	if epoch < 0 || epoch >= len(c.pubs) {
		return nil, fmt.Errorf("deploy: query %d admitted under unprovisioned epoch %d", qid, epoch)
	}
	// Every user's halves for the granted query ID, under the epoch's keys.
	msgs1 := make([]*transport.Message, len(votes))
	msgs2 := make([]*transport.Message, len(votes))
	for user, vote := range votes {
		if msgs1[user], msgs2[user], err = c.build(user, qid, vote, c.pubs[epoch]); err != nil {
			return nil, err
		}
	}
	if err := c.upload(ctx, "S1", c.opts.S1Addr, msgs1, -1); err != nil {
		return nil, err
	}
	if err := c.upload(ctx, "S2", c.opts.S2Addr, msgs2, -1); err != nil {
		return nil, err
	}
	res, err := c.await(ctx, qid, epoch)
	if res != nil {
		res.AdmitWait = admitWait
	}
	return res, err
}

// admit requests admission, replaying the same (tenant, nonce) across
// redials so a lost reply cannot double-admit.
func (c *ServeClient) admit(ctx context.Context, nonce int64) (qid, epoch int, err error) {
	var reply []int64
	_, err = c.exchange(ctx, "admit", "admit", c.opts.S1Addr, func(actx context.Context, conn transport.Conn) error {
		if err := transport.SendControl(actx, conn, ctrlAdmitRequest, c.opts.Tenant, nonce); err != nil {
			return err
		}
		r, err := transport.ExpectControl(actx, conn, ctrlAdmitReply)
		if err != nil {
			return err
		}
		if len(r) < 3 {
			return transport.MarkFatal(fmt.Errorf("deploy: short admit reply %v", r))
		}
		reply = r
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	if aerr := admitError(reply[0]); aerr != nil {
		return 0, 0, fmt.Errorf("deploy: admission refused: %w", aerr)
	}
	return int(reply[1]), int(reply[2]), nil
}

// await blocks on the query's result; the wait is idempotent (results
// stay queryable), so a dropped connection simply re-asks.
func (c *ServeClient) await(ctx context.Context, qid, epoch int) (*ServeResult, error) {
	var reply []int64
	_, err := c.exchange(ctx, "result", "result", c.opts.S1Addr, func(actx context.Context, conn transport.Conn) error {
		if err := transport.SendControl(actx, conn, ctrlResultWait, int64(qid)); err != nil {
			return err
		}
		r, err := transport.ExpectControl(actx, conn, ctrlResultReply)
		if err != nil {
			return err
		}
		if len(r) < 4 || int(r[0]) != qid {
			return transport.MarkFatal(fmt.Errorf("deploy: bad result reply %v for query %d", r, qid))
		}
		reply = r
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("deploy: result for query %d: %w", qid, err)
	}
	res := &ServeResult{QID: qid, Epoch: epoch, Label: int(reply[2]), Attempts: int(reply[3])}
	switch reply[1] {
	case resultConsensus:
		res.Consensus = true
	case resultNoConsensus:
		res.Label = -1
	case resultQuorumMiss:
		return res, fmt.Errorf("deploy: query %d: %w", qid, protocol.ErrQuorumNotMet)
	case resultUnknown:
		return res, fmt.Errorf("deploy: query %d unknown to the server", qid)
	default:
		return res, fmt.Errorf("deploy: query %d after %d attempts: %w", qid, res.Attempts, ErrQueryFailed)
	}
	return res, nil
}
