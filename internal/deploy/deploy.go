// Package deploy implements the multi-process deployment of the private
// consensus protocol: standalone S1 and S2 servers that accept user
// submissions and each other's protocol traffic over TCP, and the client
// that builds and delivers encrypted submissions. There is one run per
// server: the serve core (serve.go on S1, serve_s2.go on S2) admits queries,
// each with its own collector, and runs them one at a time on the peer
// link. ServeS1 and ServeS2 are the only ways to start it. A batch run
// (ServeOptions.Instances = N, users on SubmitVotes) registers queries
// 0..N-1 for tenant 0 before the first connection is accepted and drains
// once they resolve; continuous operation (Instances 0, users on
// ServeClient) registers nothing up front and drains when told to.
//
//   - messages: deploy.go (hello), session.go (begin/end, upload done/ack),
//     partial.go (participant exchange), trace.go (trace context),
//     serve_wire.go (admission, result, ctl).
//   - S1: serve.go — registration (admission or pre-registration), one
//     watcher per collector, the serve loop; leader.go runs one query per
//     call: claim the link, begin frame, agree participants, Alg. 5, keep or
//     discard the link.
//   - S2: serve_s2.go — the ctl link, registration, the report; follower.go
//     reconnects within the budget, reads session frames and runs S2's side
//     of each announced attempt.
//   - accept and ingest: accept.go — one accept loop over the caller's routes
//     (peer, relay, user) and one user-connection handler: submit frames
//     into the collector the run's query lookup names, done/ack, ack before
//     release. ingest_server.go holds relay batches and RunIngest. Which
//     frames a server accepts, in what order it checks them, what each
//     refusal is called and when a frame is a replay is ingest.Intake's
//     decision, the same one a relay makes; a collector embeds one.
//   - client: client.go — build, dial/hello/attempt/backoff, frames → done →
//     ack; SubmitVotes (user.go) and ServeClient (serve_client.go) call it.
//
// Wire protocol. Every connection opens with a hello frame naming the
// party. Users then send one frame per query carrying their submission half
// and end the upload with a done/ack exchange, so replays after a reconnect
// stay idempotent; the peer link runs the one S1↔S2 grammar of
// docs/PROTOCOL.md (hello with the wire version, trace context, then per
// query a begin frame, the participant exchange and the Alg. 5 messages,
// closed by an end frame) beside the ctl link. The frame's instance slot
// carries the query ID.
//
//	hello  := Message{Kind: KindControl, Flags: [party]}            user
//	          Message{Kind: KindControl, Flags: [party, caps]}      user, relay
//	          Message{Kind: KindControl, Flags: [2, caps, version]} S2 → S1
//	submit := Message{Kind: KindShares,
//	                  Flags: [user, instance, classes],
//	                  Values: votes || thresh || noisy}   (3K ciphertexts)
package deploy

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	mrand "math/rand"
	"sync"
	"time"

	"github.com/privconsensus/privconsensus/internal/ingest"
	"github.com/privconsensus/privconsensus/internal/obs"
	"github.com/privconsensus/privconsensus/internal/protocol"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// Party identifiers in hello frames. A relay (the ingestion tier) connects
// with partyRelay and the ingest.CapPresum capability; its combined frames
// carry pre-summed batches the collector expands back into attested users.
const (
	partyUser  int64 = ingest.PartyUser
	partyPeer  int64 = ingest.PartyPeer
	partyRelay int64 = ingest.PartyRelay
)

// wireVersion names the one S1↔S2 grammar this build speaks. S2 sends it in
// its hello and S1 refuses any other value before a single protocol frame.
// Bump it with every change to the peer-link transcript; the golden
// transcript test fails until you do.
const wireVersion int64 = 3

// hello is a decoded hello frame. version is 0 on user and relay hellos,
// which carry none.
type hello struct {
	party, caps, version int64
}

// sendHello identifies this connection's party and capability bits to the
// acceptor: one flag without capabilities, two with, and on the peer link
// always three — party, caps and the wire version.
func sendHello(ctx context.Context, conn transport.Conn, party, caps int64) error {
	flags := []int64{party}
	if caps != 0 || party == partyPeer {
		flags = append(flags, caps)
	}
	if party == partyPeer {
		flags = append(flags, wireVersion)
	}
	return conn.Send(ctx, &transport.Message{Kind: transport.KindControl, Flags: flags})
}

// recvHello reads and validates a hello frame. A peer hello that predates
// the wire version decodes with version 0, which checkPeerHello refuses.
func recvHello(ctx context.Context, conn transport.Conn) (hello, error) {
	msg, err := transport.ExpectKind(ctx, conn, transport.KindControl)
	if err != nil {
		return hello{}, fmt.Errorf("deploy: hello: %w", err)
	}
	f := msg.Flags
	if len(f) < 1 || len(f) > 3 || (len(f) == 3 && f[0] != partyPeer) ||
		(f[0] != partyUser && f[0] != partyPeer && f[0] != partyRelay) {
		return hello{}, fmt.Errorf("deploy: invalid hello frame")
	}
	h := hello{party: f[0]}
	if len(f) >= 2 {
		h.caps = f[1]
	}
	if len(f) == 3 {
		h.version = f[2]
	}
	return h, nil
}

// collector gathers one query's submissions until every user's cell is
// filled, or — with a submit deadline armed — until the deadline releases
// whatever arrived. It embeds the query's ingest.Intake, which validates
// every frame and keeps it exactly-once; the collector adds what only a
// server has: late refusals after release, the ack debt, and the stored
// aggregation groups.
type collector struct {
	mu sync.Mutex
	*ingest.Intake
	users int
	// groups holds every accepted frame as one aggregation group: a direct
	// user as a one-member group, a relay batch whole.
	groups    []heldGroup
	remaining int
	// owed counts submissions recorded by a connection whose uploader has
	// not been answered yet (a user's upload ack, a relay's
	// batch ack). A full collector releases only once nothing is owed, so
	// the release — after which the run may stop serving — never cancels an
	// exchange still in flight; see owe.
	owed     int
	released bool
	done     chan struct{}
	doneOnce sync.Once
	events   func(reason string) // optional rejection observer (journal hook)
}

// heldGroup is one accepted frame: the homomorphic sum of the bitmap
// members' halves.
type heldGroup struct {
	bm   *big.Int
	half protocol.SubmissionHalf
}

// newCollector prepares an empty collector for cfg's users and submission
// shape. ring is the N² modulus of the Paillier key the stored halves are
// encrypted under; every ciphertext of every submission must fall in
// [0, ring) or the submission is rejected.
func newCollector(cfg protocol.Config, ring *big.Int) *collector {
	return &collector{
		Intake:    ingest.NewIntake(ingest.ConfigRules(cfg), ring),
		users:     cfg.Users,
		remaining: cfg.Users,
		done:      make(chan struct{}),
	}
}

// rejectSubmission counts a refused frame under its reason, reports it to
// events (the journal hook, may be nil) and returns it wrapped in
// errRejectedSubmission; the connection handlers keep serving after it, so
// one hostile frame cannot suppress a user's later valid submissions.
func rejectSubmission(events func(string), err error) error {
	var rej *ingest.Rejection
	if errors.As(err, &rej) {
		submissionsRejected(rej.Reason).Inc()
		if events != nil {
			events(rej.Reason)
		}
	}
	return fmt.Errorf("%w: %w", errRejectedSubmission, err)
}

// add records one decoded frame the intake accepts. A byte-identical replay
// of a recorded frame is a tolerated duplicate (reconnect idempotency),
// before and after release; any other frame arriving after the collector
// released is rejected as late.
func (c *collector) add(f ingest.Frame) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	replay, err := c.Check(f)
	switch {
	case err != nil:
		return rejectSubmission(c.events, err)
	case replay:
		return fmt.Errorf("%w for instance %d", errDuplicateSubmission, f.Instance)
	case c.released:
		return rejectSubmission(c.events, &ingest.Rejection{Reason: "late",
			Err: fmt.Errorf("frame for instance %d arrived after release", f.Instance)})
	}
	c.Record(f)
	c.groups = append(c.groups, heldGroup{bm: f.Members, half: f.Half})
	c.remaining -= ingest.Popcount(f.Members)
	c.signalFullLocked()
	return nil
}

// signalFullLocked wakes wait once every cell is filled and every
// uploader answered. Caller holds c.mu.
func (c *collector) signalFullLocked() {
	if c.remaining <= 0 && c.owed == 0 {
		c.doneOnce.Do(func() { close(c.done) })
	}
}

// owe announces a submission whose uploader expects an answer on the same
// connection. Call it before add/addBatch and settle the debt once the
// answer is sent, the submission turned out not to be recorded, or the
// connection is gone. An uploader that goes silent holds the release back
// exactly as a user that never submits does: until the submit window or ctx
// ends.
func (c *collector) owe() {
	c.mu.Lock()
	c.owed++
	c.mu.Unlock()
}

// settle clears n debts taken with owe.
func (c *collector) settle(n int) {
	c.mu.Lock()
	c.owed -= n
	c.signalFullLocked()
	c.mu.Unlock()
}

// wait blocks until full participation, until window has elapsed since the
// query opened at since (window <= 0: no deadline, only a full collector
// releases) or until ctx ends, then freezes the collector: later submissions
// are rejected as late, so both servers' participant sets stay stable
// across retries. The first release feeds the quorum-wait histogram with
// the time the query was open; waiting on a released collector again
// returns at once.
func (c *collector) wait(ctx context.Context, since time.Time, window time.Duration, role string) error {
	var deadline <-chan time.Time
	if window > 0 {
		timer := time.NewTimer(time.Until(since.Add(window)))
		defer timer.Stop()
		deadline = timer.C
	}
	select {
	case <-c.done:
	case <-deadline:
	case <-ctx.Done():
		got, want := c.counts()
		return fmt.Errorf("deploy: timed out with %d submissions missing: %w", want-got, ctx.Err())
	}
	c.mu.Lock()
	first := !c.released
	c.released = true
	c.mu.Unlock()
	if first {
		obs.QuorumWaitSeconds(role).Observe(time.Since(since).Seconds())
	}
	return nil
}

// counts reports filled and total cells.
func (c *collector) counts() (got, want int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.users - c.remaining, c.users
}

// bitmap returns the participant bitmap: bit u set iff user u's validated
// submission is held locally — directly or inside a relay batch.
func (c *collector) bitmap() *big.Int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return new(big.Int).Set(c.Covered())
}

// maskedGroups returns the aggregation groups restricted to the agreed
// participant set. A relay batch is atomic — its members were
// homomorphically summed at the relay and cannot be separated — so an
// agreed set that covers only part of a group is a fatal peer mismatch
// (the servers would sum different subsets), as is an agreed participant
// with no local submission.
func (c *collector) maskedGroups(agreed *big.Int) ([]protocol.Group, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	groups := make([]protocol.Group, 0, len(c.groups))
	rest := new(big.Int).Set(agreed)
	for _, g := range c.groups {
		inter := new(big.Int).And(g.bm, agreed)
		if inter.Sign() == 0 {
			continue
		}
		if inter.Cmp(g.bm) != 0 {
			return nil, transport.MarkFatal(fmt.Errorf("deploy: agreed participant set splits a relay batch (a pre-sum cannot be separated): %w",
				protocol.ErrPeerMismatch))
		}
		groups = append(groups, protocol.Group{Members: ingest.BitmapIndices(g.bm, c.users), Half: g.half})
		rest.AndNot(rest, g.bm)
	}
	if rest.Sign() != 0 {
		return nil, transport.MarkFatal(fmt.Errorf("deploy: agreed participant %d has no local submission: %w",
			rest.TrailingZeroBits(), protocol.ErrPeerMismatch))
	}
	return groups, nil
}

// errDuplicateSubmission marks a byte-identical submission for an
// already-filled cell. The collector reports it so tests can assert
// exact-once semantics; serveUserConn tolerates it, which is what makes
// upload replays after a reconnect idempotent.
var errDuplicateSubmission = errors.New("deploy: duplicate submission")

// errRejectedSubmission marks a submission refused by server-side
// validation (counted in privconsensus_submissions_rejected_total).
var errRejectedSubmission = errors.New("deploy: submission rejected")

// newRNG derives a per-run randomness source: deterministic if seed != 0.
func newRNG(seed int64) io.Reader {
	if seed != 0 {
		return mrand.New(mrand.NewSource(seed))
	}
	return rand.Reader
}
