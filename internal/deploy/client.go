package deploy

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"
	mrand "math/rand"
	"strings"
	"time"

	"github.com/privconsensus/privconsensus/internal/fixedpoint"
	"github.com/privconsensus/privconsensus/internal/ingest"
	"github.com/privconsensus/privconsensus/internal/keystore"
	"github.com/privconsensus/privconsensus/internal/obs"
	"github.com/privconsensus/privconsensus/internal/protocol"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// client is the one submission client: it builds encrypted submissions and
// runs idempotent exchanges against a server, each attempt on a fresh
// connection. SubmitVotes (one user, a batch of instances) and ServeClient
// (one tenant, whole queries) are its two front ends; what differs between
// them — the retries_total role label, the hello capability bits, the
// dialer's jitter seed and the optional journal — they pass as values.
type client struct {
	cfg protocol.Config
	// link holds the retry budget, backoff, attempt timeout and logging
	// settings, as the ServerOptions whose helpers (attemptTimeout, log)
	// every server path already uses.
	link     ServerOptions
	role     string
	caps     int64
	dialSeed int64
	inj      *transport.FaultInjector
	journal  *obs.Journal // nil unless the front end journals

	cryptoRNG io.Reader
	noiseSeed int64 // seeds noiseRNG; ServeClient derives its nonce stream from it
	noiseRNG  *mrand.Rand
}

// newClient validates the shared settings and derives the randomness
// streams from link.Seed.
func newClient(cfg protocol.Config, link ServerOptions, role string, caps, dialSeed int64) (*client, error) {
	if err := link.validateLink(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	inj, err := link.faults()
	if err != nil {
		return nil, err
	}
	noiseSeed := link.Seed * 7919
	if link.Seed == 0 {
		// Unseeded runs must draw unpredictable DP noise: derive the noise
		// stream's seed from crypto/rand rather than anything an observer
		// could guess (such as the user index).
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			return nil, fmt.Errorf("deploy: seed noise rng: %w", err)
		}
		noiseSeed = int64(binary.BigEndian.Uint64(b[:]))
	}
	return &client{cfg: cfg, link: link, role: role, caps: caps, dialSeed: dialSeed, inj: inj,
		cryptoRNG: newRNG(link.Seed), noiseSeed: noiseSeed, noiseRNG: mrand.New(mrand.NewSource(noiseSeed))}, nil
}

// event appends one journal record (no-op without a journal); failures are
// logged, never fatal.
func (c *client) event(ev obs.Event) {
	if err := c.journal.Append(ev); err != nil {
		c.link.log(levelWarn, "journal append failed: %v", err)
	}
}

// build encrypts one vote vector (entries in [0, 1]) as user's submission
// for the query id names under pub's keys, and encodes the two halves in the
// resolved submit grammar.
func (c *client) build(user, id int, vote []float64, pub *keystore.PublicFile) (m1, m2 *transport.Message, err error) {
	units, err := votesToUnits(vote, c.cfg.Classes)
	if err != nil {
		return nil, nil, fmt.Errorf("deploy: user %d query %d: %w", user, id, err)
	}
	sub, _, err := protocol.BuildSubmission(c.cryptoRNG, c.noiseRNG, c.cfg, user, units, pub.PK1, pub.PK2)
	if err != nil {
		return nil, nil, fmt.Errorf("deploy: build submission for user %d query %d: %w", user, id, err)
	}
	if m1, err = encodeSubmission(c.cfg, user, id, sub.ToS1); err != nil {
		return nil, nil, err
	}
	m2, err = encodeSubmission(c.cfg, user, id, sub.ToS2)
	return m1, m2, err
}

// exchange runs one idempotent exchange f against addr, retrying transient
// failures within the budget: each attempt dials a fresh connection, sends
// the hello (adopting the trace context when the caps ask for it) and runs f
// under the attempt deadline. what names the exchange in errors and logs,
// scope in the retry counter. It returns the number of attempts made.
func (c *client) exchange(ctx context.Context, scope, what, addr string, f func(context.Context, transport.Conn) error) (int, error) {
	timeout := c.link.attemptTimeout()
	attempt := func() error {
		actx, cancel := context.WithTimeout(ctx, timeout)
		defer cancel()
		d := transport.Dialer{AttemptTimeout: timeout, Faults: c.inj, Seed: c.dialSeed}
		conn, err := d.Dial(actx, addr)
		if err != nil {
			return err
		}
		defer conn.Close()
		// The TCP transport maps the context deadline onto I/O deadlines only
		// at call start, so a mid-call cancellation would otherwise leave the
		// attempt blocked (typically on a reply read) until the attempt
		// deadline. Closing the connection unblocks it immediately.
		stop := context.AfterFunc(actx, func() { conn.Close() })
		defer stop()
		if err := sendHello(actx, conn, partyUser, c.caps); err != nil {
			return err
		}
		if c.caps&capTrace != 0 {
			id, err := recvTraceContext(actx, conn)
			if err != nil {
				return err
			}
			c.adoptTrace(id)
		}
		return f(actx, conn)
	}
	var lastErr error
	for a := 1; a <= c.link.MaxRetries+1; a++ {
		if a > 1 {
			retriesTotal(c.role, scope).Inc()
			c.event(obs.Event{Type: obs.EventRetry, Instance: -1, Attempt: a, Note: what})
			sleepCtx(ctx, backoffDelay(c.link.Backoff, a-1))
		}
		if err := ctx.Err(); err != nil {
			return a - 1, fmt.Errorf("deploy: %s: %w", what, err)
		}
		if lastErr = attempt(); lastErr == nil {
			return a, nil
		}
		if !attemptRetryable(ctx, lastErr) {
			return a, fmt.Errorf("deploy: %s: %w", what, lastErr)
		}
		c.link.log(levelWarn, "%s attempt %d failed, will retry: %v", what, a, lastErr)
	}
	return c.link.MaxRetries + 1, fmt.Errorf("deploy: %s failed after %d attempts: %w", what, c.link.MaxRetries+1, lastErr)
}

// adoptTrace records a trace identity learned from a server. The first
// non-zero ID wins (an ingest-only sink answers with 0) and journals the
// anchor event cmd/trace aligns clocks on.
func (c *client) adoptTrace(id int64) {
	if c.journal == nil || id == 0 {
		return
	}
	c.link.log(levelDebug, "trace context %s adopted", obs.TraceIDString(id))
	if err := c.journal.BeginTrace(obs.TraceIDString(id)); err != nil {
		c.link.log(levelWarn, "journal trace anchor failed: %v", err)
	}
}

// upload delivers one server's frames and ends with the done/ack flush
// barrier (user in the done frame; -1 for a whole-query upload). The server
// deduplicates (user, query) cells, so the replay after a mid-upload reset
// cannot double-count a vote; an unexpected answer to the done frame is
// fatal. The whole exchange is journaled as one upload span carrying the
// attempt count.
func (c *client) upload(ctx context.Context, server, addr string, msgs []*transport.Message, user int64) error {
	start := time.Now()
	attempts, err := c.exchange(ctx, "upload", "upload to "+server, addr, func(actx context.Context, conn transport.Conn) error {
		for _, m := range msgs {
			if err := conn.Send(actx, m); err != nil {
				return err
			}
		}
		if err := transport.SendControl(actx, conn, ctrlUploadDone, user); err != nil {
			return err
		}
		_, err := transport.ExpectControl(actx, conn, ctrlUploadAck)
		return err
	})
	if err != nil {
		return err
	}
	c.event(obs.Event{Type: obs.EventSpan, Instance: -1, Attempt: attempts,
		Phase:   "upload-" + strings.ToLower(server),
		StartNs: start.UnixNano(), DurNs: int64(time.Since(start)),
		MsgsSent: int64(len(msgs))})
	return nil
}

// encodeSubmission picks the submit frame grammar by the resolved packing
// mode: an unpacked config produces the original KindShares frame byte for
// byte; a packed one the KindPacked frame with its slot-layout flags.
func encodeSubmission(cfg protocol.Config, user, instance int, h protocol.SubmissionHalf) (*transport.Message, error) {
	if cfg.Packing {
		return ingest.EncodePackedHalf(user, instance, cfg.Classes, cfg.PackedWidth(), h)
	}
	return ingest.EncodeHalf(user, instance, h)
}

// votesToUnits converts a [0,1] float vote vector to fixed-point units.
func votesToUnits(vote []float64, classes int) ([]*big.Int, error) {
	if len(vote) != classes {
		return nil, fmt.Errorf("vote vector length %d, want %d", len(vote), classes)
	}
	units := make([]*big.Int, classes)
	for i, v := range vote {
		if v < 0 || v > 1 {
			return nil, fmt.Errorf("vote %g for class %d outside [0, 1]", v, i)
		}
		u, err := fixedpoint.EncodeUnits(v)
		if err != nil {
			return nil, fmt.Errorf("encode vote for class %d: %w", i, err)
		}
		units[i] = big.NewInt(u)
	}
	return units, nil
}
