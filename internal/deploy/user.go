package deploy

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
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

// UserOptions configures one user client.
type UserOptions struct {
	// User is this party's index in [0, Users).
	User int
	// S1Addr and S2Addr are the servers' listen addresses.
	S1Addr string
	S2Addr string
	// Seed, when non-zero, makes share/noise randomness deterministic.
	Seed int64
	// MaxRetries is the upload retry budget: on a transient failure the
	// client reconnects and replays the whole upload up to this many
	// times. Every upload ends with a done frame and waits for the server's
	// ack; replays are safe — the server deduplicates (user, instance)
	// submissions. 0 (the default) is one attempt.
	MaxRetries int
	// Backoff is the delay before the first retry (default 50ms),
	// doubling per retry.
	Backoff time.Duration
	// AttemptTimeout bounds each upload attempt (default 2m).
	AttemptTimeout time.Duration
	// FaultSpec, when non-empty, injects deterministic faults into the
	// client's connections (see transport.ParseFaultSpec). Testing only.
	FaultSpec string
	// JournalPath, when non-empty, appends the client's upload spans and
	// retries to a hash-chained JSONL journal at this path, and asks each
	// server for the run's trace ID (capTrace in the hello) so the events
	// merge into the cross-process timeline.
	JournalPath string
	// LogLevel filters Logf output: "debug", "info" (the default), "warn"
	// or "silent".
	LogLevel string
	// Logf receives progress lines; nil silences logging.
	Logf func(format string, args ...any)
	// Packing overrides the key file's slot-packing mode: "on", "off", or
	// "" to keep the key file's setting. Must match the servers' resolved
	// mode — a packed server rejects unpacked frames and vice versa.
	Packing string
}

// attemptTimeout returns the per-attempt deadline with its default.
func (o UserOptions) attemptTimeout() time.Duration {
	if o.AttemptTimeout > 0 {
		return o.AttemptTimeout
	}
	return 2 * time.Minute
}

// traced reports whether journaling (and trace-context requests) are on.
func (o UserOptions) traced() bool { return o.JournalPath != "" }

// log is the user client's leveled logging helper, mirroring the server's.
func (o UserOptions) log(lv logLevel, format string, args ...any) {
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

// userObs bundles the user client's optional journal and trace adoption.
// All methods are nil-safe no-ops when journaling is off.
type userObs struct {
	opts    UserOptions
	journal *obs.Journal
}

// adopt records a trace identity learned from a server. The first non-zero
// ID wins (an ingest-only sink answers with 0) and journals the anchor event
// cmd/trace aligns clocks on.
func (u *userObs) adopt(id int64) {
	if u == nil || u.journal == nil || id == 0 {
		return
	}
	u.opts.log(levelDebug, "trace context %s adopted", traceIDString(id))
	if err := u.journal.BeginTrace(traceIDString(id)); err != nil {
		u.opts.log(levelWarn, "journal trace anchor failed: %v", err)
	}
}

// event appends one journal record; failures are logged, never fatal.
func (u *userObs) event(ev obs.Event) {
	if u == nil || u.journal == nil {
		return
	}
	if err := u.journal.Append(ev); err != nil {
		u.opts.log(levelWarn, "journal append failed: %v", err)
	}
}

// userHello sends the user hello and, when traced, requests and adopts the
// run's trace identity from the server.
func userHello(ctx context.Context, conn transport.Conn, u *userObs) error {
	caps := int64(0)
	if u != nil && u.opts.traced() {
		caps = capTrace
	}
	if err := sendHello(ctx, conn, partyUser, caps); err != nil {
		return err
	}
	if caps&capTrace == 0 {
		return nil
	}
	id, err := recvTraceContext(ctx, conn)
	if err != nil {
		return err
	}
	u.adopt(id)
	return nil
}

// SubmitVotes builds encrypted submissions for each instance's vote vector
// (votes[instance][class], entries in [0, 1]) once, then uploads the S1 and
// S2 halves with per-server retry: each attempt dials a fresh connection,
// replays all frames, sends a done marker and waits for the server's ack.
// The server deduplicates (user, instance) cells, so a replay after a
// mid-upload reset cannot double-count a vote. It returns after both servers
// have acknowledged every frame.
func SubmitVotes(ctx context.Context, pub *keystore.PublicFile, opts UserOptions, votes [][]float64) error {
	if err := pub.Validate(); err != nil {
		return err
	}
	cfg := pub.Config
	if err := checkPackingMode(opts.Packing); err != nil {
		return err
	}
	applyPacking(&cfg, opts.Packing)
	if err := cfg.Validate(); err != nil {
		return err
	}
	if opts.User < 0 || opts.User >= cfg.Users {
		return fmt.Errorf("deploy: user index %d outside [0, %d)", opts.User, cfg.Users)
	}
	if len(votes) == 0 {
		return fmt.Errorf("deploy: no instances to submit")
	}
	if _, err := parseLogLevel(opts.LogLevel); err != nil {
		return err
	}
	if opts.MaxRetries < 0 {
		return fmt.Errorf("deploy: negative retry budget %d", opts.MaxRetries)
	}
	u := &userObs{opts: opts}
	if opts.traced() {
		j, err := obs.OpenJournal(opts.JournalPath, obs.JournalOptions{Role: fmt.Sprintf("user%d", opts.User)})
		if err != nil {
			return err
		}
		u.journal = j
		defer u.journal.Close()
	}

	cryptoRNG := newRNG(opts.Seed)
	noiseSeed := opts.Seed * 7919
	if opts.Seed == 0 {
		// Unseeded runs must draw unpredictable DP noise: derive the
		// noise stream's seed from crypto/rand rather than anything an
		// observer could guess (such as the user index).
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			return fmt.Errorf("deploy: seed noise rng: %w", err)
		}
		noiseSeed = int64(binary.BigEndian.Uint64(b[:]))
	}
	noiseRNG := mrand.New(mrand.NewSource(noiseSeed))

	msgs1 := make([]*transport.Message, 0, len(votes))
	msgs2 := make([]*transport.Message, 0, len(votes))
	for instance, vote := range votes {
		units, err := votesToUnits(vote, cfg.Classes)
		if err != nil {
			return fmt.Errorf("deploy: instance %d: %w", instance, err)
		}
		sub, _, err := protocol.BuildSubmission(cryptoRNG, noiseRNG, cfg, opts.User, units, pub.PK1, pub.PK2)
		if err != nil {
			return fmt.Errorf("deploy: build submission %d: %w", instance, err)
		}
		m1, err := encodeSubmission(cfg, opts.User, instance, sub.ToS1)
		if err != nil {
			return err
		}
		m2, err := encodeSubmission(cfg, opts.User, instance, sub.ToS2)
		if err != nil {
			return err
		}
		msgs1 = append(msgs1, m1)
		msgs2 = append(msgs2, m2)
	}

	var inj *transport.FaultInjector
	if opts.FaultSpec != "" {
		spec, err := transport.ParseFaultSpec(opts.FaultSpec)
		if err != nil {
			return err
		}
		inj = transport.NewFaultInjector(spec)
	}
	if err := uploadWithRetry(ctx, "S1", opts.S1Addr, msgs1, opts, u, inj); err != nil {
		return err
	}
	return uploadWithRetry(ctx, "S2", opts.S2Addr, msgs2, opts, u, inj)
}

// uploadWithRetry delivers one server's frames, retrying transient
// failures on a fresh connection within the budget. The whole exchange is
// journaled as one upload span carrying the attempt count.
func uploadWithRetry(ctx context.Context, server, addr string, msgs []*transport.Message,
	opts UserOptions, u *userObs, inj *transport.FaultInjector) error {
	start := time.Now()
	var lastErr error
	for attempt := 0; attempt <= opts.MaxRetries; attempt++ {
		if attempt > 0 {
			retriesTotal("user", "upload").Inc()
			u.event(obs.Event{Type: obs.EventRetry, Instance: -1, Attempt: attempt + 1,
				Note: "upload " + strings.ToLower(server)})
			sleepCtx(ctx, backoffDelay(opts.Backoff, attempt))
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("deploy: upload to %s: %w", server, err)
		}
		err := uploadOnce(ctx, addr, msgs, opts, u, inj)
		if err == nil {
			u.event(obs.Event{Type: obs.EventSpan, Instance: -1, Attempt: attempt + 1,
				Phase:   "upload-" + strings.ToLower(server),
				StartNs: start.UnixNano(), DurNs: int64(time.Since(start)),
				MsgsSent: int64(len(msgs))})
			return nil
		}
		lastErr = err
		if !attemptRetryable(ctx, err) {
			return fmt.Errorf("deploy: upload to %s: %w", server, err)
		}
	}
	return fmt.Errorf("deploy: upload to %s failed after %d attempts: %w", server, opts.MaxRetries+1, lastErr)
}

// uploadOnce is a single upload attempt: dial, hello, all frames, done
// marker, ack.
func uploadOnce(ctx context.Context, addr string, msgs []*transport.Message,
	opts UserOptions, u *userObs, inj *transport.FaultInjector) error {
	actx, cancel := context.WithTimeout(ctx, opts.attemptTimeout())
	defer cancel()
	d := transport.Dialer{AttemptTimeout: opts.attemptTimeout(), Faults: inj, Seed: opts.Seed + int64(opts.User) + 29}
	conn, err := d.Dial(actx, addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	// The TCP transport maps the context deadline onto I/O deadlines only
	// at call start, so a mid-call cancellation would otherwise leave the
	// attempt blocked (typically on the ack read) until the attempt
	// deadline. Closing the connection unblocks it immediately.
	stop := context.AfterFunc(actx, func() { conn.Close() })
	defer stop()
	if err := userHello(actx, conn, u); err != nil {
		return err
	}
	for _, m := range msgs {
		if err := conn.Send(actx, m); err != nil {
			return err
		}
	}
	done := &transport.Message{Kind: transport.KindControl, Flags: []int64{ctrlUploadDone, int64(opts.User)}}
	if err := conn.Send(actx, done); err != nil {
		return err
	}
	ack, err := conn.Recv(actx)
	if err != nil {
		return err
	}
	if ack.Kind != transport.KindControl || len(ack.Flags) < 1 || ack.Flags[0] != ctrlUploadAck {
		return transport.MarkFatal(fmt.Errorf("deploy: unexpected upload ack %v", ack.Flags))
	}
	return nil
}

// encodeSubmission picks the submit frame grammar by the resolved packing
// mode: an unpacked config produces the original KindShares frame byte for
// byte; a packed one the KindPacked frame with its slot-layout flags.
func encodeSubmission(cfg protocol.Config, user, instance int, h protocol.SubmissionHalf) (*transport.Message, error) {
	if cfg.Packing {
		return ingest.EncodePackedHalf(user, instance, cfg.Classes, cfg.PackedWidth(), h)
	}
	return EncodeHalf(user, instance, h)
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
