package ingest

import (
	"context"
	"fmt"
	"math/big"
	"sync"
	"time"

	"github.com/privconsensus/privconsensus/internal/obs"
	"github.com/privconsensus/privconsensus/internal/paillier"
	"github.com/privconsensus/privconsensus/internal/protocol"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// Options configures one relay node. A relay mirrors the two-server split:
// it listens on two addresses — one for frames bound for S1 (encrypted
// under pk2), one for frames bound for S2 (encrypted under pk1) — and
// forwards each side's combined batches to the matching upstream, which is
// either the server itself (two-level tree) or a parent relay (three-level
// tree).
type Options struct {
	// ListenS1/ListenS2 accept user and child-relay frames bound for the
	// respective server.
	ListenS1 string
	ListenS2 string
	// UpstreamS1/UpstreamS2 are the parent addresses the combined frames
	// are forwarded to.
	UpstreamS1 string
	UpstreamS2 string
	// RelayID identifies this relay in combined frames and acks. Every
	// relay in a tree must use a distinct ID.
	RelayID int64
	// Users, Instances and Classes bound the validation grid, exactly as
	// on the servers.
	Users     int
	Instances int
	Classes   int
	// PK1 and PK2 are the servers' Paillier public keys. Frames bound for
	// S1 are encrypted under pk2 and pre-summed with it; frames bound for
	// S2 under pk1.
	PK1 *paillier.PublicKey
	PK2 *paillier.PublicKey
	// Packed, when non-nil, switches the relay to slot-packed frames:
	// only KindPacked frames matching this layout are accepted (unpacked
	// frames are rejected as bad-frame, and vice versa when nil), and
	// combined batches are forwarded packed. Derive the fields from the
	// protocol config: Width = PackedWidth(), PerVec = PackedCiphertexts(),
	// Headroom = PackedHeadroomBits(). The relay sums a packed half
	// position-wise; how many ciphertexts one has follows from Classes,
	// Width and the size of the public keys.
	Packed *PackedParams
	// BatchSize seals a batch after this many users (default 64).
	BatchSize int
	// FlushInterval seals a non-empty open batch at least this often
	// (default 50ms), bounding the latency a quorum deadline can lose to
	// batching.
	FlushInterval time.Duration
	// MaxRetries bounds upstream delivery attempts per batch beyond the
	// first (default 2). A batch that exhausts the budget is dropped and
	// counted; its users are expected to re-home.
	MaxRetries int
	// Backoff is the delay before the first upstream retry (default
	// 50ms), doubling per retry.
	Backoff time.Duration
	// AttemptTimeout bounds each upstream dial (default 10s).
	AttemptTimeout time.Duration
	// FaultSpec, when non-empty, injects deterministic faults into every
	// accepted connection (see transport.ParseFaultSpec). Testing only.
	FaultSpec string
	// JournalPath, when non-empty, appends relay lifecycle events
	// (rejections, forwarded batches) to a hash-chained JSONL journal.
	JournalPath string
	// Seed drives retry jitter deterministically.
	Seed int64
	// Logf receives progress lines; nil silences logging.
	Logf func(format string, args ...any)
	// ReadyS1/ReadyS2, when non-nil, receive the bound listen addresses
	// once the relay is accepting (lets tests use port 0).
	ReadyS1 chan<- string
	ReadyS2 chan<- string
}

// PackedParams is the slot layout a packed-mode relay validates frames
// against without needing any key material beyond the public keys.
type PackedParams struct {
	// Width is the expected slot width in bits.
	Width int
	// PerVec is the packed ciphertext count of one Classes-long sequence
	// (the Noisy group); the joint Votes‖Thresh group takes between PerVec
	// and 2*PerVec.
	PerVec int
	// Headroom is the per-slot bit budget reserved above the user count:
	// the bias bits plus the blinding bits plus carry guards. A slot of
	// width W absorbs at most 2^(W-Headroom) per-user contributions
	// before a sum can overflow into the neighbouring slot.
	Headroom int
}

// Capacity returns how many per-user contributions a slot of the declared
// width can absorb without overflow, given the configured headroom.
func (p *PackedParams) Capacity(width int) int {
	sh := width - p.Headroom
	switch {
	case sh <= 0:
		return 0
	case sh >= 31:
		return 1 << 30 // far beyond any supported user count
	default:
		return 1 << sh
	}
}

// withDefaults resolves option defaults.
func (o Options) withDefaults() Options {
	if o.BatchSize <= 0 {
		o.BatchSize = 64
	}
	if o.FlushInterval <= 0 {
		o.FlushInterval = 50 * time.Millisecond
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	} else if o.MaxRetries == 0 {
		o.MaxRetries = 2
	}
	if o.Backoff <= 0 {
		o.Backoff = 50 * time.Millisecond
	}
	if o.AttemptTimeout <= 0 {
		o.AttemptTimeout = 10 * time.Second
	}
	return o
}

// validate checks the options.
func (o Options) validate() error {
	if o.ListenS1 == "" || o.ListenS2 == "" {
		return fmt.Errorf("ingest: relay needs both listen addresses")
	}
	if o.UpstreamS1 == "" || o.UpstreamS2 == "" {
		return fmt.Errorf("ingest: relay needs both upstream addresses")
	}
	if o.Users < 1 || o.Instances < 1 || o.Classes < 2 {
		return fmt.Errorf("ingest: relay needs users >= 1, instances >= 1, classes >= 2 (got %d/%d/%d)",
			o.Users, o.Instances, o.Classes)
	}
	if o.PK1 == nil || o.PK2 == nil {
		return fmt.Errorf("ingest: relay needs both server public keys")
	}
	if p := o.Packed; p != nil {
		if p.Width < 1 || p.PerVec < 1 || p.Headroom < 1 || p.Headroom >= p.Width {
			return fmt.Errorf("ingest: relay packed layout needs 1 <= headroom < width and perVec >= 1 (got width=%d perVec=%d headroom=%d)",
				p.Width, p.PerVec, p.Headroom)
		}
		if o.Users > p.Capacity(p.Width) {
			return fmt.Errorf("ingest: relay packed layout width %d cannot absorb %d users", p.Width, o.Users)
		}
		for _, pk := range []*paillier.PublicKey{o.PK1, o.PK2} {
			if want := protocol.PackedGroupCiphertexts(1, o.Classes, p.Width, pk.N.BitLen()); want != p.PerVec {
				return fmt.Errorf("ingest: relay packed layout says %d ciphertexts per sequence, but %d classes x %d bits under a %d-bit key take %d",
					p.PerVec, o.Classes, p.Width, pk.N.BitLen(), want)
			}
		}
	}
	return nil
}

// log emits a progress line when a sink is configured.
func (o Options) log(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Relay is one running relay node.
type relay struct {
	opts    Options
	journal *obs.Journal
	sides   [2]*side
}

// sealed is one batch ready for upstream delivery.
type sealed struct {
	instance int
	seq      int64
	users    int
	msg      *transport.Message
}

// childKey identifies a child relay's batch for replay dedup.
type childKey struct {
	relay int64
	seq   int64
}

// openBatch accumulates the running homomorphic sums of one instance's
// in-progress batch.
type openBatch struct {
	bm   *big.Int
	sums [3][]*paillier.Ciphertext // votes, thresh, noisy
	n    int
}

// sideInstance is one instance's ingestion state on one side.
type sideInstance struct {
	// covered has bit u set iff user u's frame (direct or via a child
	// batch) is already summed into some batch on this side.
	covered *big.Int
	// digests keys replay dedup for directly-ingested users. Child-batch
	// members have no per-user digest; the covered bit alone rejects a
	// second identity for them.
	digests map[int][32]byte
	open    *openBatch
}

// side is one destination pipeline of a relay (everything bound for S1, or
// everything bound for S2).
type side struct {
	name     string // "s1" or "s2"
	pk       *paillier.PublicKey
	ring     *big.Int
	upstream string
	r        *relay
	// want is the shape of a well-formed half on this side (ciphertext
	// counts of Votes, Thresh, Noisy; see protocol.Config.HalfLens).
	want [3]int

	mu        sync.Mutex
	insts     []*sideInstance
	nextSeq   int64
	childSeen map[childKey][32]byte

	out chan *sealed
}

// newSide builds one destination pipeline.
func newSide(r *relay, name string, pk *paillier.PublicKey, upstream string) *side {
	k := r.opts.Classes
	want := [3]int{k, k, k}
	if p := r.opts.Packed; p != nil {
		want = [3]int{protocol.PackedGroupCiphertexts(2, k, p.Width, pk.N.BitLen()), 0, p.PerVec}
	}
	s := &side{
		name:      name,
		pk:        pk,
		ring:      pk.N2,
		upstream:  upstream,
		r:         r,
		want:      want,
		insts:     make([]*sideInstance, r.opts.Instances),
		childSeen: make(map[childKey][32]byte),
		out:       make(chan *sealed, 256),
	}
	for i := range s.insts {
		s.insts[i] = &sideInstance{covered: new(big.Int), digests: make(map[int][32]byte)}
	}
	return s
}

// errRejected marks a frame refused by relay-side validation; the serving
// loop counts it and keeps the connection.
type rejectError struct {
	reason string
	err    error
}

func (e *rejectError) Error() string {
	return fmt.Sprintf("ingest: rejected (%s): %v", e.reason, e.err)
}
func (e *rejectError) Unwrap() error { return e.err }

// errReplay marks a tolerated byte-identical duplicate: not an error, not
// new data.
var errReplay = fmt.Errorf("ingest: duplicate frame replayed")

// reject counts and journals one refused frame.
func (s *side) reject(reason string, err error) error {
	relayRejected(s.name, reason).Inc()
	s.r.journalEvent(obs.Event{Type: obs.EventRejection, Instance: -1, Note: reason})
	return &rejectError{reason: reason, err: err}
}

// ringCheck verifies every ciphertext of a half lives in [0, N²).
func (s *side) ringCheck(half [3][]*paillier.Ciphertext) bool {
	for _, group := range half {
		for _, ct := range group {
			if ct == nil || ct.C == nil || ct.C.Sign() < 0 || ct.C.Cmp(s.ring) >= 0 {
				return false
			}
		}
	}
	return true
}

// addUser validates one directly-submitted user frame and folds it into the
// instance's open batch, sealing the batch when it reaches BatchSize. The
// validation order mirrors the server collector exactly: identity and shape
// first, ring membership, then exact-once semantics.
func (s *side) addUser(msg *transport.Message) (*sealed, error) {
	opts := s.r.opts
	var (
		user, instance int
		classes, width int
		half           protocol.SubmissionHalf
		err            error
	)
	if opts.Packed != nil {
		user, instance, classes, width, half, err = DecodePackedHalf(msg)
	} else {
		user, instance, half, err = DecodeHalf(msg)
	}
	if err != nil {
		return nil, s.reject("bad-frame", err)
	}
	if user < 0 || user >= opts.Users {
		return nil, s.reject("unknown-user", fmt.Errorf("user index %d outside [0, %d)", user, opts.Users))
	}
	if instance < 0 || instance >= opts.Instances {
		return nil, s.reject("bad-instance", fmt.Errorf("instance index %d outside [0, %d)", instance, opts.Instances))
	}
	if half.Lens() != s.want {
		return nil, s.reject("bad-length", fmt.Errorf("submission has %v ciphertexts, want %v", half.Lens(), s.want))
	}
	if p := opts.Packed; p != nil {
		// The frame's own declared width must leave room for at least one
		// contribution above the headroom before we even compare layouts.
		if p.Capacity(width) < 1 {
			return nil, s.reject("slot-overflow", fmt.Errorf("declared slot width %d leaves no room above %d headroom bits", width, p.Headroom))
		}
		if classes != opts.Classes || width != p.Width {
			return nil, s.reject("bad-width", fmt.Errorf("packed layout %d classes x %d bits, want %d x %d",
				classes, width, opts.Classes, p.Width))
		}
	}
	if !s.ringCheck([3][]*paillier.Ciphertext{half.Votes, half.Thresh, half.Noisy}) {
		return nil, s.reject("out-of-ring", fmt.Errorf("user %d instance %d ciphertext outside [0, N²)", user, instance))
	}
	digest := FrameDigest(msg)

	s.mu.Lock()
	inst := s.insts[instance]
	if inst.covered.Bit(user) == 1 {
		prev, direct := inst.digests[user]
		s.mu.Unlock()
		if direct && prev == digest {
			return nil, errReplay // idempotent retransmission after a reconnect
		}
		return nil, s.reject("duplicate", fmt.Errorf("conflicting resubmission from user %d for instance %d (first write wins)", user, instance))
	}
	bm := new(big.Int).SetBit(new(big.Int), user, 1)
	if err := s.mergeLocked(inst, bm, half, 1); err != nil {
		s.mu.Unlock()
		return nil, s.reject("bad-frame", err)
	}
	inst.digests[user] = digest
	out := s.maybeSealLocked(instance, inst, false)
	s.mu.Unlock()
	relayUsers(s.name).Inc()
	return out, nil
}

// addChild validates one child relay's combined frame and merges it into
// the instance's open batch. The returned ack status distinguishes a
// tolerated replay (acked again, not re-counted) from fresh data.
func (s *side) addChild(msg *transport.Message) (*sealed, int64, error) {
	opts := s.r.opts
	c, err := decodeChild(msg)
	if err != nil {
		relayBatchesIn(s.name, "rejected").Inc()
		return nil, BatchRejected, s.reject("bad-frame", err)
	}
	if (opts.Packed != nil) != (c.Width > 0) {
		relayBatchesIn(s.name, "rejected").Inc()
		return nil, BatchRejected, s.reject("bad-frame",
			fmt.Errorf("combined frame packing mode mismatch (frame packed=%v, relay packed=%v)", c.Width > 0, opts.Packed != nil))
	}
	if c.Instance < 0 || c.Instance >= opts.Instances {
		relayBatchesIn(s.name, "rejected").Inc()
		return nil, BatchRejected, s.reject("bad-instance", fmt.Errorf("instance index %d outside [0, %d)", c.Instance, opts.Instances))
	}
	if c.Half.Lens() != s.want {
		relayBatchesIn(s.name, "rejected").Inc()
		return nil, BatchRejected, s.reject("bad-length", fmt.Errorf("combined frame has %v ciphertexts, want %v", c.Half.Lens(), s.want))
	}
	if p := opts.Packed; p != nil {
		// Overflow capacity is judged against the frame's own declared
		// width first: a batch claiming more members than any slot of
		// that width could have absorbed is structurally invalid even
		// before the layout comparison.
		if c.Users() > p.Capacity(c.Width) {
			relayBatchesIn(s.name, "rejected").Inc()
			return nil, BatchRejected, s.reject("slot-overflow",
				fmt.Errorf("batch relay=%d seq=%d sums %d users but width %d absorbs at most %d", c.Relay, c.Seq, c.Users(), c.Width, p.Capacity(c.Width)))
		}
		if c.Classes != opts.Classes || c.Width != p.Width {
			relayBatchesIn(s.name, "rejected").Inc()
			return nil, BatchRejected, s.reject("bad-width", fmt.Errorf("packed layout %d classes x %d bits, want %d x %d",
				c.Classes, c.Width, opts.Classes, p.Width))
		}
	}
	if c.Bitmap.BitLen() > opts.Users {
		relayBatchesIn(s.name, "rejected").Inc()
		return nil, BatchRejected, s.reject("unknown-user", fmt.Errorf("bitmap names users beyond [0, %d)", opts.Users))
	}
	if !s.ringCheck([3][]*paillier.Ciphertext{c.Half.Votes, c.Half.Thresh, c.Half.Noisy}) {
		relayBatchesIn(s.name, "rejected").Inc()
		return nil, BatchRejected, s.reject("out-of-ring", fmt.Errorf("relay %d seq %d ciphertext outside [0, N²)", c.Relay, c.Seq))
	}
	digest := FrameDigest(msg)
	key := childKey{relay: c.Relay, seq: c.Seq}

	s.mu.Lock()
	if prev, ok := s.childSeen[key]; ok {
		s.mu.Unlock()
		if prev == digest {
			relayBatchesIn(s.name, "replay").Inc()
			return nil, BatchAccepted, errReplay
		}
		relayBatchesIn(s.name, "rejected").Inc()
		return nil, BatchRejected, s.reject("duplicate", fmt.Errorf("conflicting reuse of batch identity relay=%d seq=%d", c.Relay, c.Seq))
	}
	inst := s.insts[c.Instance]
	if new(big.Int).And(inst.covered, c.Bitmap).Sign() != 0 {
		s.mu.Unlock()
		relayBatchesIn(s.name, "rejected").Inc()
		return nil, BatchRejected, s.reject("overlap", fmt.Errorf("batch relay=%d seq=%d repeats already-covered users", c.Relay, c.Seq))
	}
	if err := s.mergeLocked(inst, c.Bitmap, c.Half, c.Users()); err != nil {
		s.mu.Unlock()
		relayBatchesIn(s.name, "rejected").Inc()
		return nil, BatchRejected, s.reject("bad-frame", err)
	}
	s.childSeen[key] = digest
	out := s.maybeSealLocked(c.Instance, inst, false)
	s.mu.Unlock()
	relayBatchesIn(s.name, "accepted").Inc()
	return out, BatchAccepted, nil
}

// mergeLocked folds a (bitmap, half, weight) unit into the instance's open
// batch. Caller holds s.mu. weight is the number of users the unit covers.
func (s *side) mergeLocked(inst *sideInstance, bm *big.Int, half protocol.SubmissionHalf, weight int) error {
	if inst.open == nil {
		inst.open = &openBatch{bm: new(big.Int)}
	}
	o := inst.open
	fields := [3][]*paillier.Ciphertext{half.Votes, half.Thresh, half.Noisy}
	// One scratch big.Int serves every fold of this frame: the
	// accumulators are private to the open batch, so in-place AddInto
	// avoids the two allocations per element that Add would make.
	scratch := new(big.Int)
	for fi, vec := range fields {
		if o.sums[fi] == nil {
			acc := make([]*paillier.Ciphertext, len(vec))
			for i, ct := range vec {
				acc[i] = ct.Clone()
			}
			o.sums[fi] = acc
			continue
		}
		for i, ct := range vec {
			if err := s.pk.AddInto(o.sums[fi][i], ct, scratch); err != nil {
				return fmt.Errorf("ingest: pre-sum class %d: %w", i, err)
			}
		}
	}
	o.bm.Or(o.bm, bm)
	o.n += weight
	inst.covered.Or(inst.covered, bm)
	return nil
}

// maybeSealLocked seals the instance's open batch when it reached
// BatchSize (or unconditionally with force). Caller holds s.mu; the caller
// pushes the returned batch outside the lock.
func (s *side) maybeSealLocked(instance int, inst *sideInstance, force bool) *sealed {
	o := inst.open
	if o == nil || o.n == 0 || (!force && o.n < s.r.opts.BatchSize) {
		return nil
	}
	inst.open = nil
	seq := s.nextSeq
	s.nextSeq++
	c := Combined{
		Relay:    s.r.opts.RelayID,
		Seq:      seq,
		Instance: instance,
		Bitmap:   o.bm,
		Half:     protocol.SubmissionHalf{Votes: o.sums[0], Thresh: o.sums[1], Noisy: o.sums[2]},
	}
	var msg *transport.Message
	var err error
	if p := s.r.opts.Packed; p != nil {
		c.Width = p.Width
		c.Classes = s.r.opts.Classes
		msg, err = EncodePackedCombined(c)
	} else {
		msg, err = EncodeCombined(c)
	}
	if err != nil {
		// Unreachable for batches built from validated frames.
		s.r.opts.log("relay %d: seal failed: %v", s.r.opts.RelayID, err)
		return nil
	}
	return &sealed{instance: instance, seq: seq, users: o.n, msg: msg}
}

// push hands a sealed batch to the forwarder, bounded by ctx.
func (s *side) push(ctx context.Context, b *sealed) {
	if b == nil {
		return
	}
	select {
	case s.out <- b:
	case <-ctx.Done():
	}
}

// flushLoop seals non-empty open batches every FlushInterval so a trickle
// of users is never stuck behind an unfilled batch.
func (s *side) flushLoop(ctx context.Context) {
	t := time.NewTicker(s.r.opts.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			for i := range s.insts {
				s.mu.Lock()
				b := s.maybeSealLocked(i, s.insts[i], true)
				s.mu.Unlock()
				s.push(ctx, b)
			}
		case <-ctx.Done():
			return
		}
	}
}

// forwardLoop delivers sealed batches upstream in order, lock-step: send
// one combined frame, await its ack, retry on a fresh connection within the
// budget. A batch that exhausts the budget is dropped and counted — its
// users re-home to a sibling relay, which is the degradation the tree
// promises (slower ingestion, not lost participants).
func (s *side) forwardLoop(ctx context.Context) {
	opts := s.r.opts
	var conn transport.Conn
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	for {
		var b *sealed
		select {
		case b = <-s.out:
		case <-ctx.Done():
			return
		}
		delivered := false
		var status int64
		for attempt := 0; attempt <= opts.MaxRetries && !delivered; attempt++ {
			if attempt > 0 {
				relayForwardRetries(s.name).Inc()
				select {
				case <-time.After(opts.Backoff << uint(attempt-1)):
				case <-ctx.Done():
					return
				}
			}
			if conn == nil {
				c, err := s.dialUpstream(ctx)
				if err != nil {
					opts.log("relay %d/%s: upstream dial failed: %v", opts.RelayID, s.name, err)
					continue
				}
				conn = c
			}
			st, err := s.deliver(ctx, conn, b)
			if err != nil {
				conn.Close()
				conn = nil
				if !transport.IsRetryable(err) {
					opts.log("relay %d/%s: fatal upstream error: %v", opts.RelayID, s.name, err)
					break
				}
				continue
			}
			delivered = true
			status = st
		}
		switch {
		case !delivered:
			relayBatchesOut(s.name, "dropped").Inc()
			opts.log("relay %d/%s: dropped batch seq=%d (%d users) after exhausting retries",
				opts.RelayID, s.name, b.seq, b.users)
		case status == BatchRejected:
			relayBatchesOut(s.name, "rejected").Inc()
			opts.log("relay %d/%s: upstream rejected batch seq=%d (%d users)",
				opts.RelayID, s.name, b.seq, b.users)
		default:
			relayBatchesOut(s.name, "acked").Inc()
			s.r.journalEvent(obs.Event{Type: obs.EventRelayBatch, Instance: b.instance,
				Note: fmt.Sprintf("side=%s seq=%d users=%d", s.name, b.seq, b.users)})
		}
	}
}

// dialUpstream opens and identifies a fresh upstream connection.
func (s *side) dialUpstream(ctx context.Context) (transport.Conn, error) {
	opts := s.r.opts
	d := transport.Dialer{
		Attempts:       1,
		AttemptTimeout: opts.AttemptTimeout,
		Seed:           opts.Seed + opts.RelayID,
	}
	conn, err := d.Dial(ctx, s.upstream)
	if err != nil {
		return nil, err
	}
	caps := CapPresum
	if opts.Packed != nil {
		caps |= CapPacked
	}
	if err := SendHello(ctx, conn, PartyRelay, caps); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// deliver sends one combined frame and awaits its matching ack.
func (s *side) deliver(ctx context.Context, conn transport.Conn, b *sealed) (int64, error) {
	if err := conn.Send(ctx, b.msg); err != nil {
		return 0, err
	}
	msg, err := transport.ExpectKind(ctx, conn, transport.KindControl)
	if err != nil {
		return 0, err
	}
	if len(msg.Flags) != 4 || msg.Flags[0] != CtrlBatchAck ||
		msg.Flags[1] != s.r.opts.RelayID || msg.Flags[2] != b.seq {
		return 0, transport.MarkFatal(fmt.Errorf("ingest: unexpected batch ack %v for seq %d", msg.Flags, b.seq))
	}
	return msg.Flags[3], nil
}

// journalEvent appends one relay journal record; failures are logged, never
// fatal.
func (r *relay) journalEvent(ev obs.Event) {
	if r.journal == nil {
		return
	}
	if err := r.journal.Append(ev); err != nil {
		r.opts.log("relay %d: journal append failed: %v", r.opts.RelayID, err)
	}
}

// serve drains frames from one accepted connection into the side's
// pipeline. Users send 3-flag submit frames and optional done/ack
// exchanges; child relays send 5-flag combined frames, each acked.
func (s *side) serve(ctx context.Context, conn transport.Conn) {
	defer conn.Close()
	if _, _, err := RecvHello(ctx, conn); err != nil {
		s.r.opts.log("relay %d/%s: dropping connection with bad hello: %v", s.r.opts.RelayID, s.name, err)
		return
	}
	for {
		msg, err := conn.Recv(ctx)
		if err != nil {
			return // normal end of stream
		}
		switch {
		case msg.Kind == transport.KindControl && len(msg.Flags) >= 1 && msg.Flags[0] == CtrlUploadDone:
			user := int64(-1)
			if len(msg.Flags) >= 2 {
				user = msg.Flags[1]
			}
			ack := &transport.Message{Kind: transport.KindControl, Flags: []int64{CtrlUploadAck, user}}
			if err := conn.Send(ctx, ack); err != nil {
				return
			}
		case (msg.Kind == transport.KindShares && len(msg.Flags) == 5) ||
			(msg.Kind == transport.KindPacked && len(msg.Flags) == 7):
			c, errc := decodeChild(msg)
			b, status, err := s.addChild(msg)
			s.push(ctx, b)
			if errc != nil {
				// Undecodable child batches cannot be acked (no identity);
				// drop the frame, keep the connection.
				continue
			}
			if err != nil && err != errReplay {
				if _, ok := err.(*rejectError); !ok {
					return
				}
			}
			ack := &transport.Message{Kind: transport.KindControl,
				Flags: []int64{CtrlBatchAck, c.Relay, c.Seq, status}}
			if err := conn.Send(ctx, ack); err != nil {
				return
			}
		default:
			b, err := s.addUser(msg)
			s.push(ctx, b)
			if err != nil && err != errReplay {
				if _, ok := err.(*rejectError); !ok {
					s.r.opts.log("relay %d/%s: connection error: %v", s.r.opts.RelayID, s.name, err)
					return
				}
			}
		}
	}
}

// Run starts one relay node and blocks until ctx is cancelled or a
// listener fails. Batches still buffered when ctx ends are dropped — the
// relay is stateless by design; users that were never acked re-home.
func Run(ctx context.Context, opts Options) error {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return err
	}
	r := &relay{opts: opts}
	if opts.JournalPath != "" {
		j, err := obs.OpenJournal(opts.JournalPath, obs.JournalOptions{Role: fmt.Sprintf("relay%d", opts.RelayID)})
		if err != nil {
			return err
		}
		r.journal = j
		defer j.Close()
	}
	var inj *transport.FaultInjector
	if opts.FaultSpec != "" {
		spec, err := transport.ParseFaultSpec(opts.FaultSpec)
		if err != nil {
			return err
		}
		if spec.Enabled() {
			inj = transport.NewFaultInjector(spec)
		}
	}

	r.sides[0] = newSide(r, "s1", opts.PK2, opts.UpstreamS1)
	r.sides[1] = newSide(r, "s2", opts.PK1, opts.UpstreamS2)

	listens := [2]string{opts.ListenS1, opts.ListenS2}
	readies := [2]chan<- string{opts.ReadyS1, opts.ReadyS2}
	listeners := make([]*transport.Listener, 2)
	for i := range listeners {
		l, err := transport.Listen(listens[i])
		if err != nil {
			for _, prev := range listeners[:i] {
				prev.Close()
			}
			return err
		}
		l.SetFaults(inj)
		listeners[i] = l
		if readies[i] != nil {
			readies[i] <- l.Addr()
		}
	}
	opts.log("relay %d listening on %s (s1) and %s (s2)", opts.RelayID, listeners[0].Addr(), listeners[1].Addr())

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	acceptErr := make(chan error, 2)
	for i, s := range r.sides {
		wg.Add(2)
		go func(s *side) { defer wg.Done(); s.flushLoop(runCtx) }(s)
		go func(s *side) { defer wg.Done(); s.forwardLoop(runCtx) }(s)
		go func(l *transport.Listener, s *side) {
			for {
				conn, err := l.Accept()
				if err != nil {
					select {
					case <-runCtx.Done():
					default:
						select {
						case acceptErr <- fmt.Errorf("ingest: relay accept: %w", err):
						default:
						}
					}
					return
				}
				wg.Add(1)
				go func() { defer wg.Done(); s.serve(runCtx, conn) }()
			}
		}(listeners[i], s)
	}

	var err error
	select {
	case <-ctx.Done():
	case err = <-acceptErr:
	}
	cancel()
	for _, l := range listeners {
		l.Close()
	}
	wg.Wait()
	return err
}
