// Package deploy implements the multi-process deployment of the private
// consensus protocol: standalone S1 and S2 servers that accept user
// submissions and each other's protocol traffic over TCP, and the client
// that builds and delivers encrypted submissions. There is one query path.
// Batch runs (RunS1Report/RunS2Report + SubmitVotes) and continuous
// operation (ServeS1/ServeS2 + ServeClient) are two front ends of the same
// code; serve adds admission, the ε-ledger, key epochs and the ctl link on
// top, and forks none of what is below.
//
//   - messages: deploy.go (hello), session.go (begin/end, upload done/ack),
//     partial.go (participant exchange), trace.go (trace context),
//     serve_wire.go (admission, result, ctl).
//   - S1 leader: leader.go — per query: claim the link, begin frame, agree
//     participants, Alg. 5, keep or discard the link. Batch runs it for
//     instances 0..N-1 of the grid, serve for each released query.
//   - S2 follower: follower.go — reconnect within the budget, read a session
//     frame, hand begin frames to the caller's handler, which resolves the
//     query and runs S2's side of the attempt.
//   - accept and ingest: accept.go — one accept loop over the caller's routes
//     (peer, relay, user) and one user-connection handler: submit frames
//     into a collector the caller's lookup names, done/ack, ack before
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
// closed by an end frame). The frame's instance slot carries the batch
// instance index or the serve query ID.
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
const wireVersion int64 = 2

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

// collector gathers user submissions until every (user, instance) cell is
// filled, or — with a submit deadline armed — until the deadline releases
// whatever arrived. Every submission is validated on ingestion; rejected
// submissions are counted by reason and never enter the grid.
type collector struct {
	mu        sync.Mutex
	users     int
	instances int
	// want is the shape every half must have (protocol.Config.HalfLens):
	// Classes ciphertexts per vector on an unpacked grid; on a packed one
	// the joint Votes‖Thresh group, no Thresh, and the Noisy group.
	want [3]int
	// packed, when non-nil, marks the grid as slot-packed: frames must
	// declare exactly this layout (checked by decodeSubmit and
	// packedBatchCheck before add/addBatch).
	packed *ingest.PackedParams
	// packedClasses is the logical class count K packed frames must
	// declare (0 on an unpacked grid).
	packedClasses int
	ring          *big.Int                     // Paillier N² the halves must live in (nil disables the check)
	halves        [][]*protocol.SubmissionHalf // [instance][user]
	// covered has bit u set iff user u's submission for the instance is
	// held locally — directly in halves, or pre-summed inside a relay
	// batch. It is the authoritative participant bitmap.
	covered []*big.Int // [instance]
	// batches holds accepted relay pre-sums per instance; their members
	// have covered bits set but no per-user half.
	batches [][]relayBatch // [instance]
	// batchSeen keys relay-batch replay dedup by (relay, seq) identity.
	batchSeen map[batchKey][32]byte
	remaining int
	// owed counts submissions recorded by a connection whose uploader has
	// not been answered yet (a user's upload ack, a relay's
	// batch ack). A full grid releases only once nothing is owed, so the
	// release — after which the run may stop serving — never cancels an
	// exchange still in flight; see owe.
	owed     int
	released bool
	done     chan struct{}
	doneOnce sync.Once
	events   func(reason string) // optional rejection observer (journal hook)
}

// relayBatch is one accepted combined frame: the homomorphic sum of the
// bitmap members' halves for one instance.
type relayBatch struct {
	bm   *big.Int
	half protocol.SubmissionHalf
}

// batchKey identifies one relay batch for replay dedup.
type batchKey struct {
	relay int64
	seq   int64
}

// newCollector prepares an empty submission grid for cfg's users and
// submission shape. ring is the N² modulus of the Paillier key the stored
// halves are encrypted under; every ciphertext of every submission must fall
// in [0, ring) or the submission is rejected.
func newCollector(cfg protocol.Config, instances int, ring *big.Int) *collector {
	users := cfg.Users
	c := &collector{
		users:     users,
		instances: instances,
		want:      cfg.HalfLens(),
		ring:      ring,
		halves:    make([][]*protocol.SubmissionHalf, instances),
		covered:   make([]*big.Int, instances),
		batches:   make([][]relayBatch, instances),
		batchSeen: make(map[batchKey][32]byte),
		remaining: users * instances,
		done:      make(chan struct{}),
	}
	for i := range c.halves {
		c.halves[i] = make([]*protocol.SubmissionHalf, users)
		c.covered[i] = new(big.Int)
	}
	if cfg.Packing {
		c.packed = &ingest.PackedParams{
			Width:    cfg.PackedWidth(),
			PerVec:   cfg.PackedCiphertexts(),
			Headroom: cfg.PackedHeadroomBits(),
		}
		c.packedClasses = cfg.Classes
	}
	return c
}

// reject counts a refused submission by reason and returns the wrapped
// sentinel; serveUserConn tolerates rejections without dropping the
// connection, so one hostile frame cannot suppress a user's later valid
// submissions.
func (c *collector) reject(reason string, err error) error {
	submissionsRejected(reason).Inc()
	if c.events != nil {
		c.events(reason)
	}
	return fmt.Errorf("%w (%s): %v", errRejectedSubmission, reason, err)
}

// add validates and records one submission. Validation order: identity and
// shape first (unknown-user, bad-instance, bad-length), ring membership of
// every ciphertext, then exact-once semantics — a byte-identical replay of
// the recorded submission is a tolerated duplicate (reconnect idempotency),
// a conflicting one is rejected first-write-wins, and anything arriving
// after the collector released is rejected as late.
func (c *collector) add(user, instance int, half protocol.SubmissionHalf) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if user < 0 || user >= c.users {
		return c.reject("unknown-user", fmt.Errorf("user index %d outside [0, %d)", user, c.users))
	}
	if instance < 0 || instance >= c.instances {
		return c.reject("bad-instance", fmt.Errorf("instance index %d outside [0, %d)", instance, c.instances))
	}
	if half.Lens() != c.want {
		return c.reject("bad-length", fmt.Errorf("submission has %v ciphertexts, want %v", half.Lens(), c.want))
	}
	if c.ring != nil {
		for _, group := range [][]*paillier.Ciphertext{half.Votes, half.Thresh, half.Noisy} {
			for _, ct := range group {
				if ct == nil || ct.C == nil || ct.C.Sign() < 0 || ct.C.Cmp(c.ring) >= 0 {
					return c.reject("out-of-ring", fmt.Errorf("user %d instance %d ciphertext outside [0, N²)", user, instance))
				}
			}
		}
	}
	if prev := c.halves[instance][user]; prev != nil {
		if halfEqual(*prev, half) {
			return fmt.Errorf("%w from user %d for instance %d", errDuplicateSubmission, user, instance)
		}
		return c.reject("duplicate", fmt.Errorf("conflicting resubmission from user %d for instance %d (first write wins)", user, instance))
	}
	if c.covered[instance].Bit(user) == 1 {
		// The user is already pre-summed inside a relay batch; its bytes
		// cannot be compared, so a direct frame is a conflicting identity.
		return c.reject("duplicate", fmt.Errorf("user %d already covered by a relay batch for instance %d", user, instance))
	}
	if c.released {
		return c.reject("late", fmt.Errorf("submission from user %d for instance %d arrived after release", user, instance))
	}
	h := half
	c.halves[instance][user] = &h
	c.covered[instance].SetBit(c.covered[instance], user, 1)
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
func (c *collector) addBatch(relay, seq int64, instance int, bm *big.Int, half protocol.SubmissionHalf, digest [32]byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if instance < 0 || instance >= c.instances {
		return c.reject("bad-instance", fmt.Errorf("instance index %d outside [0, %d)", instance, c.instances))
	}
	if bm == nil || bm.Sign() <= 0 || bm.BitLen() > c.users {
		return c.reject("bad-bitmap", fmt.Errorf("batch relay=%d seq=%d bitmap names users outside [0, %d)", relay, seq, c.users))
	}
	if half.Lens() != c.want {
		return c.reject("bad-length", fmt.Errorf("batch has %v ciphertexts, want %v", half.Lens(), c.want))
	}
	if c.ring != nil {
		for _, group := range [][]*paillier.Ciphertext{half.Votes, half.Thresh, half.Noisy} {
			for _, ct := range group {
				if ct == nil || ct.C == nil || ct.C.Sign() < 0 || ct.C.Cmp(c.ring) >= 0 {
					return c.reject("out-of-ring", fmt.Errorf("batch relay=%d seq=%d ciphertext outside [0, N²)", relay, seq))
				}
			}
		}
	}
	key := batchKey{relay: relay, seq: seq}
	if prev, ok := c.batchSeen[key]; ok {
		if prev == digest {
			return fmt.Errorf("%w from relay %d seq %d", errDuplicateSubmission, relay, seq)
		}
		return c.reject("duplicate", fmt.Errorf("conflicting reuse of batch identity relay=%d seq=%d (first write wins)", relay, seq))
	}
	if new(big.Int).And(c.covered[instance], bm).Sign() != 0 {
		return c.reject("overlap", fmt.Errorf("batch relay=%d seq=%d repeats already-covered users for instance %d", relay, seq, instance))
	}
	if c.released {
		return c.reject("late", fmt.Errorf("batch relay=%d seq=%d arrived after release", relay, seq))
	}
	c.batchSeen[key] = digest
	c.covered[instance].Or(c.covered[instance], bm)
	c.batches[instance] = append(c.batches[instance], relayBatch{bm: new(big.Int).Set(bm), half: half})
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
// grid opened at since (window <= 0: no deadline, only the full grid
// releases) or until ctx ends, then freezes the grid: later submissions are
// rejected as late, so both servers' participant sets stay stable across
// retries. The first release feeds the quorum-wait histogram with the time
// the grid was open; waiting on a released grid again returns at once.
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
		c.mu.Lock()
		missing := c.remaining
		c.mu.Unlock()
		return fmt.Errorf("deploy: timed out with %d submissions missing: %w", missing, ctx.Err())
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

// counts reports filled and total grid cells.
func (c *collector) counts() (got, want int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.users*c.instances - c.remaining, c.users * c.instances
}

// bitmap returns the participant bitmap for one instance: bit u set iff
// user u's validated submission is held locally — directly or inside a
// relay batch.
func (c *collector) bitmap(i int) *big.Int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return new(big.Int).Set(c.covered[i])
}

// maskedGroups returns the aggregation groups for one instance restricted
// to the agreed participant set. A relay batch is atomic — its members were
// homomorphically summed at the relay and cannot be separated — so an
// agreed set that covers only part of a batch is a fatal peer mismatch
// (the servers would sum different subsets), as is an agreed participant
// with no local submission.
func (c *collector) maskedGroups(i int, agreed *big.Int) ([]protocol.Group, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	groups := make([]protocol.Group, 0, len(c.batches[i])+c.users)
	rest := new(big.Int).Set(agreed)
	for _, b := range c.batches[i] {
		inter := new(big.Int).And(b.bm, agreed)
		if inter.Sign() == 0 {
			continue
		}
		if inter.Cmp(b.bm) != 0 {
			return nil, transport.MarkFatal(fmt.Errorf("deploy: agreed participant set for instance %d splits a relay batch (a pre-sum cannot be separated): %w",
				i, protocol.ErrPeerMismatch))
		}
		groups = append(groups, protocol.Group{Members: ingest.BitmapIndices(b.bm, c.users), Half: b.half})
		rest.AndNot(rest, b.bm)
	}
	for u := 0; u < c.users; u++ {
		if rest.Bit(u) == 0 {
			continue
		}
		h := c.halves[i][u]
		if h == nil {
			return nil, transport.MarkFatal(fmt.Errorf("deploy: agreed participant %d has no local submission for instance %d: %w",
				u, i, protocol.ErrPeerMismatch))
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
