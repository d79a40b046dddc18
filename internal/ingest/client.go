package ingest

import (
	"context"
	"fmt"
	"time"

	"github.com/privconsensus/privconsensus/internal/transport"
)

// Uploader delivers one user's submission frames to an ingestion endpoint
// with transparent failover. Endpoints are tried in order: the user's
// primary relay first, then siblings, with a direct server address as the
// final fallback. When an endpoint dies mid-upload the uploader re-homes to
// the next one and replays every frame not yet confirmed — the replay is
// safe because relays and servers dedup byte-identical frames (and at worst
// a conflicting overlap is rejected, never double-counted). Re-homing
// degrades ingestion latency; a relay that dies after confirming an upload
// loses it (see Confirm).
type Uploader struct {
	// Endpoints are tried in order; the uploader sticks with one until it
	// exhausts MaxRetries against it.
	Endpoints []string
	// MaxRetries bounds recovery attempts per endpoint beyond the first
	// (default 2).
	MaxRetries int
	// Backoff is the delay before the first retry (default 25ms), doubling
	// per attempt against the same endpoint.
	Backoff time.Duration
	// AttemptTimeout bounds each dial (default 5s).
	AttemptTimeout time.Duration
	// Seed drives dial jitter deterministically.
	Seed int64
	// Logf receives progress lines; nil silences logging.
	Logf func(format string, args ...any)

	// Rehomes counts endpoint failovers performed by this uploader.
	Rehomes int

	conn     transport.Conn
	cur      int
	failures int
	pending  []*transport.Message
}

func (u *Uploader) log(format string, args ...any) {
	if u.Logf != nil {
		u.Logf(format, args...)
	}
}

func (u *Uploader) backoff() time.Duration {
	if u.Backoff > 0 {
		return u.Backoff
	}
	return 25 * time.Millisecond
}

func (u *Uploader) maxRetries() int {
	if u.MaxRetries > 0 {
		return u.MaxRetries
	}
	return 2
}

// connect dials the current endpoint and identifies as a user.
func (u *Uploader) connect(ctx context.Context) error {
	timeout := u.AttemptTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	d := transport.Dialer{Attempts: 1, AttemptTimeout: timeout, Seed: u.Seed}
	conn, err := d.Dial(ctx, u.Endpoints[u.cur])
	if err != nil {
		return err
	}
	if err := SendHello(ctx, conn, PartyUser, 0); err != nil {
		conn.Close()
		return err
	}
	u.conn = conn
	return nil
}

// recover re-establishes a connection, advancing to the next endpoint
// (re-homing) once the current one exhausts its retry budget, and replays
// every unconfirmed frame.
func (u *Uploader) recover(ctx context.Context) error {
	if len(u.Endpoints) == 0 {
		return fmt.Errorf("ingest: uploader has no endpoints")
	}
	for {
		if u.failures > u.maxRetries() {
			if u.cur+1 >= len(u.Endpoints) {
				return transport.MarkFatal(fmt.Errorf("ingest: all %d ingestion endpoints exhausted", len(u.Endpoints)))
			}
			u.cur++
			u.failures = 0
			u.Rehomes++
			rehomesTotal().Inc()
			u.log("uploader: re-homing to %s", u.Endpoints[u.cur])
		}
		if u.failures > 0 {
			select {
			case <-time.After(u.backoff() << uint(u.failures-1)):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		err := u.connect(ctx)
		if err == nil {
			err = u.replay(ctx)
		}
		if err == nil {
			return nil
		}
		if u.conn != nil {
			u.conn.Close()
			u.conn = nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		u.failures++
		u.log("uploader: attempt against %s failed: %v", u.Endpoints[u.cur], err)
	}
}

// replay resends every unconfirmed frame on the fresh connection.
func (u *Uploader) replay(ctx context.Context) error {
	for _, msg := range u.pending {
		if err := u.conn.Send(ctx, msg); err != nil {
			return err
		}
	}
	return nil
}

// Send queues the frames as unconfirmed and delivers them, recovering (and
// re-homing if needed) on connection errors. Frames stay in the replay
// buffer until Confirm succeeds.
func (u *Uploader) Send(ctx context.Context, msgs ...*transport.Message) error {
	for _, msg := range msgs {
		u.pending = append(u.pending, msg)
		if u.conn != nil {
			if err := u.conn.Send(ctx, msg); err == nil {
				continue
			}
			u.conn.Close()
			u.conn = nil
			u.failures++
		}
		// recover replays all pending frames, including msg.
		if err := u.recover(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Confirm performs the done/ack exchange and then clears the replay buffer.
// The ack says the endpoint holds every frame sent so far — a server in its
// collector, a relay only merged into its open batch, which is sealed and
// acked upstream later. A relay that dies in between loses those frames for
// the query, and Confirm has already forgotten them (docs/PROTOCOL.md
// § Re-homing).
func (u *Uploader) Confirm(ctx context.Context, user int64) error {
	for {
		err := u.confirmOnce(ctx, user)
		if err == nil {
			u.pending = u.pending[:0]
			u.failures = 0
			return nil
		}
		if u.conn != nil {
			u.conn.Close()
			u.conn = nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		u.failures++
		if rerr := u.recover(ctx); rerr != nil {
			return rerr
		}
	}
}

func (u *Uploader) confirmOnce(ctx context.Context, user int64) error {
	if u.conn == nil {
		if err := u.recover(ctx); err != nil {
			return err
		}
	}
	done := &transport.Message{Kind: transport.KindControl, Flags: []int64{CtrlUploadDone, user}}
	if err := u.conn.Send(ctx, done); err != nil {
		return err
	}
	msg, err := transport.ExpectKind(ctx, u.conn, transport.KindControl)
	if err != nil {
		return err
	}
	if len(msg.Flags) < 1 || msg.Flags[0] != CtrlUploadAck {
		return fmt.Errorf("ingest: unexpected upload ack %v", msg.Flags)
	}
	return nil
}

// Close releases the connection; unconfirmed frames are forgotten.
func (u *Uploader) Close() {
	if u.conn != nil {
		u.conn.Close()
		u.conn = nil
	}
}
