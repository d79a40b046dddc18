package deploy

import (
	"context"
	"fmt"
	"time"

	"github.com/privconsensus/privconsensus/internal/keystore"
	"github.com/privconsensus/privconsensus/internal/obs"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// UserOptions configures one user client.
type UserOptions struct {
	// User is this party's index in [0, Users).
	User int
	// S1Addr and S2Addr are the servers' listen addresses.
	S1Addr string
	S2Addr string
	// Seed, when non-zero, makes share/noise randomness deterministic. It
	// must differ per user: users that share a seed draw identical masks
	// and noise.
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
	// A journaling user asks each server for the run's trace ID (capTrace),
	// so its events merge into the cross-process timeline.
	caps := int64(0)
	if opts.JournalPath != "" {
		caps = capTrace
	}
	c, err := newClient(pub.Config, ServerOptions{
		Seed: opts.Seed, MaxRetries: opts.MaxRetries, Backoff: opts.Backoff, AttemptTimeout: opts.AttemptTimeout,
		FaultSpec: opts.FaultSpec, LogLevel: opts.LogLevel, Logf: opts.Logf,
	}, "user", caps, opts.Seed+int64(opts.User)+29)
	if err != nil {
		return err
	}
	if opts.User < 0 || opts.User >= c.cfg.Users {
		return fmt.Errorf("deploy: user index %d outside [0, %d)", opts.User, c.cfg.Users)
	}
	if len(votes) == 0 {
		return fmt.Errorf("deploy: no instances to submit")
	}
	if opts.JournalPath != "" {
		c.journal, err = obs.OpenJournal(opts.JournalPath, obs.JournalOptions{Role: fmt.Sprintf("user%d", opts.User)})
		if err != nil {
			return err
		}
		defer c.journal.Close()
	}
	msgs1 := make([]*transport.Message, len(votes))
	msgs2 := make([]*transport.Message, len(votes))
	for instance, vote := range votes {
		if msgs1[instance], msgs2[instance], err = c.build(opts.User, instance, vote, pub); err != nil {
			return err
		}
	}
	if err := c.upload(ctx, "S1", opts.S1Addr, msgs1, int64(opts.User)); err != nil {
		return err
	}
	return c.upload(ctx, "S2", opts.S2Addr, msgs2, int64(opts.User))
}
