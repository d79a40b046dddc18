// Package deploy implements the multi-process deployment of the private
// consensus protocol: standalone S1 and S2 servers that accept user
// submissions and each other's protocol traffic over TCP, and the client
// that builds and delivers encrypted submissions. There is one run per
// server: the serve core (serve.go on S1, serve_s2.go on S2) admits queries,
// each with its own collector, and runs them one at a time on the peer
// link. A batch run (RunS1Report/RunS2Report + SubmitVotes) is that core
// with queries 0..Instances-1 registered for tenant 0 before the first
// connection is accepted, then drained once they resolve; continuous
// operation (ServeS1/ServeS2 + ServeClient) registers nothing up front and
// drains when told to.
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
//     release. ingest_server.go holds relay batches and RunIngest.
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
	"github.com/privconsensus/privconsensus/internal/paillier"
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

// collector gathers one query's user submissions until every user's cell is
// filled, or — with a submit deadline armed — until the deadline releases
// whatever arrived. Every submission is validated on ingestion; rejected
// submissions are counted by reason and never enter the collector.
type collector struct {
	mu    sync.Mutex
	users int
	// want is the shape every half must have (protocol.Config.HalfLens):
	// Classes ciphertexts per vector unpacked; packed, the joint
	// Votes‖Thresh group, no Thresh, and the Noisy group.
	want [3]int
	// packed, when non-nil, marks the query as slot-packed: frames must
	// declare exactly this layout (checked by serverSetup.decodeSubmit and
	// packedBatchCheck before add/addBatch).
	packed *ingest.PackedParams
	// classes is the logical class count K packed frames must declare.
	classes int
	ring    *big.Int                   // Paillier N² the halves must live in (nil disables the check)
	halves  []*protocol.SubmissionHalf // [user]
	// covered has bit u set iff user u's submission is held locally —
	// directly in halves, or pre-summed inside a relay batch. It is the
	// authoritative participant bitmap.
	covered *big.Int
	// batches holds accepted relay pre-sums; their members have covered
	// bits set but no per-user half.
	batches []relayBatch
	// batchSeen keys relay-batch replay dedup by (relay, seq) identity.
	batchSeen map[batchKey][32]byte
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

// relayBatch is one accepted combined frame: the homomorphic sum of the
// bitmap members' halves.
type relayBatch struct {
	bm   *big.Int
	half protocol.SubmissionHalf
}

// batchKey identifies one relay batch for replay dedup.
type batchKey struct {
	relay int64
	seq   int64
}

// newCollector prepares an empty collector for cfg's users and submission
// shape. ring is the N² modulus of the Paillier key the stored halves are
// encrypted under; every ciphertext of every submission must fall in
// [0, ring) or the submission is rejected.
func newCollector(cfg protocol.Config, ring *big.Int) *collector {
	return &collector{
		users:     cfg.Users,
		want:      cfg.HalfLens(),
		packed:    packedParams(cfg),
		classes:   cfg.Classes,
		ring:      ring,
		halves:    make([]*protocol.SubmissionHalf, cfg.Users),
		covered:   new(big.Int),
		batchSeen: make(map[batchKey][32]byte),
		remaining: cfg.Users,
		done:      make(chan struct{}),
	}
}

// packedParams is the slot layout of cfg's packed submissions (nil when
// cfg does not pack).
func packedParams(cfg protocol.Config) *ingest.PackedParams {
	if !cfg.Packing {
		return nil
	}
	return &ingest.PackedParams{
		Width:    cfg.PackedWidth(),
		PerVec:   cfg.PackedCiphertexts(),
		Headroom: cfg.PackedHeadroomBits(),
	}
}

// rejectSubmission counts a refused submission by reason, reports it to
// events (the journal hook, may be nil) and returns the wrapped sentinel;
// serveUserConn tolerates rejections without dropping the connection, so
// one hostile frame cannot suppress a user's later valid submissions.
func rejectSubmission(events func(string), reason string, err error) error {
	submissionsRejected(reason).Inc()
	if events != nil {
		events(reason)
	}
	return fmt.Errorf("%w (%s): %v", errRejectedSubmission, reason, err)
}

// reject is rejectSubmission with the collector's journal hook.
func (c *collector) reject(reason string, err error) error {
	return rejectSubmission(c.events, reason, err)
}

// inRing reports whether every ciphertext of half lies in [0, ring) (always
// true without a ring).
func (c *collector) inRing(half protocol.SubmissionHalf) bool {
	if c.ring == nil {
		return true
	}
	for _, group := range [][]*paillier.Ciphertext{half.Votes, half.Thresh, half.Noisy} {
		for _, ct := range group {
			if ct == nil || ct.C == nil || ct.C.Sign() < 0 || ct.C.Cmp(c.ring) >= 0 {
				return false
			}
		}
	}
	return true
}

// add validates and records one submission. Validation order: identity and
// shape first (unknown-user, bad-length), ring membership of every
// ciphertext, then exact-once semantics — a byte-identical replay of the
// recorded submission is a tolerated duplicate (reconnect idempotency), a
// conflicting one is rejected first-write-wins, and anything arriving after
// the collector released is rejected as late.
func (c *collector) add(user int, half protocol.SubmissionHalf) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if user < 0 || user >= c.users {
		return c.reject("unknown-user", fmt.Errorf("user index %d outside [0, %d)", user, c.users))
	}
	if half.Lens() != c.want {
		return c.reject("bad-length", fmt.Errorf("submission has %v ciphertexts, want %v", half.Lens(), c.want))
	}
	if !c.inRing(half) {
		return c.reject("out-of-ring", fmt.Errorf("user %d ciphertext outside [0, N²)", user))
	}
	if prev := c.halves[user]; prev != nil {
		if halfEqual(*prev, half) {
			return fmt.Errorf("%w from user %d", errDuplicateSubmission, user)
		}
		return c.reject("duplicate", fmt.Errorf("conflicting resubmission from user %d (first write wins)", user))
	}
	if c.covered.Bit(user) == 1 {
		// The user is already pre-summed inside a relay batch; its bytes
		// cannot be compared, so a direct frame is a conflicting identity.
		return c.reject("duplicate", fmt.Errorf("user %d already covered by a relay batch", user))
	}
	if c.released {
		return c.reject("late", fmt.Errorf("submission from user %d arrived after release", user))
	}
	h := half
	c.halves[user] = &h
	c.covered.SetBit(c.covered, user, 1)
	c.remaining--
	c.signalFullLocked()
	return nil
}

// addBatch validates and records one relay batch. Validation mirrors add:
// identity and shape first, ring membership, then exact-once semantics —
// the (relay, seq) identity with a byte-identical frame digest is a
// tolerated replay, a conflicting one is rejected, and a bitmap that
// overlaps any covered user is rejected whole (a relay never legitimately
// re-sums a delivered user).
func (c *collector) addBatch(relay, seq int64, bm *big.Int, half protocol.SubmissionHalf, digest [32]byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if bm == nil || bm.Sign() <= 0 || bm.BitLen() > c.users {
		return c.reject("bad-bitmap", fmt.Errorf("batch relay=%d seq=%d bitmap names users outside [0, %d)", relay, seq, c.users))
	}
	if half.Lens() != c.want {
		return c.reject("bad-length", fmt.Errorf("batch has %v ciphertexts, want %v", half.Lens(), c.want))
	}
	if !c.inRing(half) {
		return c.reject("out-of-ring", fmt.Errorf("batch relay=%d seq=%d ciphertext outside [0, N²)", relay, seq))
	}
	key := batchKey{relay: relay, seq: seq}
	if prev, ok := c.batchSeen[key]; ok {
		if prev == digest {
			return fmt.Errorf("%w from relay %d seq %d", errDuplicateSubmission, relay, seq)
		}
		return c.reject("duplicate", fmt.Errorf("conflicting reuse of batch identity relay=%d seq=%d (first write wins)", relay, seq))
	}
	if new(big.Int).And(c.covered, bm).Sign() != 0 {
		return c.reject("overlap", fmt.Errorf("batch relay=%d seq=%d repeats already-covered users", relay, seq))
	}
	if c.released {
		return c.reject("late", fmt.Errorf("batch relay=%d seq=%d arrived after release", relay, seq))
	}
	c.batchSeen[key] = digest
	c.covered.Or(c.covered, bm)
	c.batches = append(c.batches, relayBatch{bm: new(big.Int).Set(bm), half: half})
	c.remaining -= ingest.Popcount(bm)
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

// halfEqual reports whether two equal-shape submission halves carry the
// same ciphertext bytes.
func halfEqual(a, b protocol.SubmissionHalf) bool {
	pairs := [][2][]*paillier.Ciphertext{{a.Votes, b.Votes}, {a.Thresh, b.Thresh}, {a.Noisy, b.Noisy}}
	for _, p := range pairs {
		for i := range p[0] {
			if p[0][i].C.Cmp(p[1][i].C) != 0 {
				return false
			}
		}
	}
	return true
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
	return new(big.Int).Set(c.covered)
}

// maskedGroups returns the aggregation groups restricted to the agreed
// participant set. A relay batch is atomic — its members were
// homomorphically summed at the relay and cannot be separated — so an
// agreed set that covers only part of a batch is a fatal peer mismatch
// (the servers would sum different subsets), as is an agreed participant
// with no local submission.
func (c *collector) maskedGroups(agreed *big.Int) ([]protocol.Group, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	groups := make([]protocol.Group, 0, len(c.batches)+c.users)
	rest := new(big.Int).Set(agreed)
	for _, b := range c.batches {
		inter := new(big.Int).And(b.bm, agreed)
		if inter.Sign() == 0 {
			continue
		}
		if inter.Cmp(b.bm) != 0 {
			return nil, transport.MarkFatal(fmt.Errorf("deploy: agreed participant set splits a relay batch (a pre-sum cannot be separated): %w",
				protocol.ErrPeerMismatch))
		}
		groups = append(groups, protocol.Group{Members: ingest.BitmapIndices(b.bm, c.users), Half: b.half})
		rest.AndNot(rest, b.bm)
	}
	for u := 0; u < c.users; u++ {
		if rest.Bit(u) == 0 {
			continue
		}
		h := c.halves[u]
		if h == nil {
			return nil, transport.MarkFatal(fmt.Errorf("deploy: agreed participant %d has no local submission: %w",
				u, protocol.ErrPeerMismatch))
		}
		groups = append(groups, protocol.Group{Members: []int{u}, Half: *h})
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
