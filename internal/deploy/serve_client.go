package deploy

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
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
	// Packing overrides the key files' slot-packing mode ("on"/"off"/"").
	Packing string
}

func (o ServeClientOptions) attemptTimeout() time.Duration {
	if o.AttemptTimeout > 0 {
		return o.AttemptTimeout
	}
	return 2 * time.Minute
}

func (o ServeClientOptions) log(lv logLevel, format string, args ...any) {
	if o.Logf == nil {
		return
	}
	min, err := parseLogLevel(o.LogLevel)
	if err != nil {
		min = levelInfo
	}
	if lv < min {
		return
	}
	if lv == levelWarn {
		format = "WARN " + format
	}
	o.Logf(format, args...)
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
	pubs      []*keystore.PublicFile // indexed by epoch
	opts      ServeClientOptions
	cfg       protocol.Config
	inj       *transport.FaultInjector
	cryptoRNG io.Reader
	noiseRNG  *mrand.Rand
	nonceRNG  *mrand.Rand
}

// NewServeClient validates the per-epoch public key files (one per
// provisioned epoch, matching the servers' key files) and prepares the
// client's randomness streams.
func NewServeClient(pubs []*keystore.PublicFile, opts ServeClientOptions) (*ServeClient, error) {
	if len(pubs) == 0 {
		return nil, fmt.Errorf("deploy: serve client needs at least one epoch public key file")
	}
	if err := checkPackingMode(opts.Packing); err != nil {
		return nil, err
	}
	cfg := pubs[0].Config
	applyPacking(&cfg, opts.Packing)
	if err := cfg.Validate(); err != nil {
		return nil, err
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
	if opts.MaxRetries < 0 {
		return nil, fmt.Errorf("deploy: negative retry budget %d", opts.MaxRetries)
	}
	if _, err := parseLogLevel(opts.LogLevel); err != nil {
		return nil, err
	}
	c := &ServeClient{pubs: pubs, opts: opts, cfg: cfg, cryptoRNG: newRNG(opts.Seed)}
	noiseSeed := opts.Seed * 7919
	if opts.Seed == 0 {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			return nil, fmt.Errorf("deploy: seed noise rng: %w", err)
		}
		noiseSeed = int64(binary.BigEndian.Uint64(b[:]))
	}
	c.noiseRNG = mrand.New(mrand.NewSource(noiseSeed))
	c.nonceRNG = mrand.New(mrand.NewSource(noiseSeed ^ 0x5ee6a7e))
	if opts.FaultSpec != "" {
		spec, err := transport.ParseFaultSpec(opts.FaultSpec)
		if err != nil {
			return nil, err
		}
		c.inj = transport.NewFaultInjector(spec)
	}
	return c, nil
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
	msgs1, msgs2, err := c.buildUploads(qid, epoch, votes)
	if err != nil {
		return nil, err
	}
	if err := c.upload(ctx, "S1", c.opts.S1Addr, msgs1); err != nil {
		return nil, err
	}
	if err := c.upload(ctx, "S2", c.opts.S2Addr, msgs2); err != nil {
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
	err = c.phase(ctx, "admit", func(actx context.Context, conn transport.Conn) error {
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

// buildUploads encrypts every user's halves for the granted query ID
// under the epoch's public keys.
func (c *ServeClient) buildUploads(qid, epoch int, votes [][]float64) (msgs1, msgs2 []*transport.Message, err error) {
	pub := c.pubs[epoch]
	msgs1 = make([]*transport.Message, 0, c.cfg.Users)
	msgs2 = make([]*transport.Message, 0, c.cfg.Users)
	for user, vote := range votes {
		units, err := votesToUnits(vote, c.cfg.Classes)
		if err != nil {
			return nil, nil, fmt.Errorf("deploy: user %d: %w", user, err)
		}
		sub, _, err := protocol.BuildSubmission(c.cryptoRNG, c.noiseRNG, c.cfg, user, units, pub.PK1, pub.PK2)
		if err != nil {
			return nil, nil, fmt.Errorf("deploy: build submission for user %d: %w", user, err)
		}
		m1, err := encodeSubmission(c.cfg, user, qid, sub.ToS1)
		if err != nil {
			return nil, nil, err
		}
		m2, err := encodeSubmission(c.cfg, user, qid, sub.ToS2)
		if err != nil {
			return nil, nil, err
		}
		msgs1 = append(msgs1, m1)
		msgs2 = append(msgs2, m2)
	}
	return msgs1, msgs2, nil
}

// upload replays one server's frames until the done/ack flush barrier
// succeeds; the server deduplicates (user, query) cells, so replays after
// a mid-upload reset cannot double-count a vote.
func (c *ServeClient) upload(ctx context.Context, server, addr string, msgs []*transport.Message) error {
	err := c.phaseAt(ctx, "upload-"+server, addr, func(actx context.Context, conn transport.Conn) error {
		for _, m := range msgs {
			if err := conn.Send(actx, m); err != nil {
				return err
			}
		}
		if err := transport.SendControl(actx, conn, ctrlUploadDone, -1); err != nil {
			return err
		}
		_, err := transport.ExpectControl(actx, conn, ctrlUploadAck)
		return err
	})
	if err != nil {
		return fmt.Errorf("deploy: upload to %s: %w", server, err)
	}
	return nil
}

// await blocks on the query's result; the wait is idempotent (results
// stay queryable), so a dropped connection simply re-asks.
func (c *ServeClient) await(ctx context.Context, qid, epoch int) (*ServeResult, error) {
	var reply []int64
	err := c.phase(ctx, "result", func(actx context.Context, conn transport.Conn) error {
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

// phase runs one S1 request/response exchange with per-attempt redial.
func (c *ServeClient) phase(ctx context.Context, name string, f func(context.Context, transport.Conn) error) error {
	return c.phaseAt(ctx, name, c.opts.S1Addr, f)
}

// phaseAt runs one idempotent exchange against addr: each attempt dials a
// fresh connection, sends the serve hello and runs f under the attempt
// deadline.
func (c *ServeClient) phaseAt(ctx context.Context, name, addr string, f func(context.Context, transport.Conn) error) error {
	opts := c.opts
	var lastErr error
	for attempt := 0; attempt <= opts.MaxRetries; attempt++ {
		if attempt > 0 {
			retriesTotal("client", name).Inc()
			sleepCtx(ctx, backoffDelay(opts.Backoff, attempt))
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("deploy: %s: %w", name, err)
		}
		err := func() error {
			actx, cancel := context.WithTimeout(ctx, opts.attemptTimeout())
			defer cancel()
			d := transport.Dialer{AttemptTimeout: opts.attemptTimeout(), Faults: c.inj, Seed: opts.Seed + opts.Tenant + 31}
			conn, err := d.Dial(actx, addr)
			if err != nil {
				return err
			}
			defer conn.Close()
			stop := context.AfterFunc(actx, func() { conn.Close() })
			defer stop()
			if err := sendHello(actx, conn, partyUser, capServe); err != nil {
				return err
			}
			return f(actx, conn)
		}()
		if err == nil {
			return nil
		}
		lastErr = err
		if !attemptRetryable(ctx, err) {
			return fmt.Errorf("deploy: %s: %w", name, err)
		}
		opts.log(levelWarn, "serve client %s attempt %d failed, will retry: %v", name, attempt+1, err)
	}
	return fmt.Errorf("deploy: %s failed after %d attempts: %w", name, opts.MaxRetries+1, lastErr)
}
