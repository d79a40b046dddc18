package ingest

import (
	"context"
	"errors"
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
	// BatchSize seals a batch after this many users (default 64); a
	// non-empty open batch also seals every flushInterval.
	BatchSize int
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

// flushInterval seals a non-empty open batch at least this often, bounding
// the latency a quorum deadline can lose to batching.
const flushInterval = 50 * time.Millisecond

// withDefaults resolves option defaults.
func (o Options) withDefaults() Options {
	if o.BatchSize <= 0 {
		o.BatchSize = 64
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

// rules are the frame rules of the side that pre-sums under pk: the server's
// rules, with a packed half's joint group counted from pk's bit length.
func (o Options) rules(pk *paillier.PublicKey) Rules {
	r := Rules{Users: o.Users, Classes: o.Classes, Packed: o.Packed, Want: [3]int{o.Classes, o.Classes, o.Classes}}
	if p := o.Packed; p != nil {
		r.Want = [3]int{protocol.PackedGroupCiphertexts(2, o.Classes, p.Width, pk.N.BitLen()), 0, p.PerVec}
	}
	return r
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

// openBatch accumulates the running homomorphic sums of one instance's
// in-progress batch.
type openBatch struct {
	bm   *big.Int
	sums [3][]paillier.Sum // votes, thresh, noisy
	n    int
}

// sideInstance is one instance's ingestion state on one side: the intake
// that records which users are summed into some batch, and the open batch.
type sideInstance struct {
	*Intake
	open *openBatch
}

// side is one destination pipeline of a relay (everything bound for S1, or
// everything bound for S2).
type side struct {
	name     string // "s1" or "s2"
	pk       *paillier.PublicKey
	upstream string
	r        *relay
	rules    Rules

	mu      sync.Mutex
	insts   []*sideInstance
	nextSeq int64
	scratch []big.Word // every open batch's sums fold and seal in it

	out chan *sealed
}

// newSide builds one destination pipeline.
func newSide(r *relay, name string, pk *paillier.PublicKey, upstream string) *side {
	s := &side{
		name:     name,
		pk:       pk,
		upstream: upstream,
		r:        r,
		rules:    r.opts.rules(pk),
		insts:    make([]*sideInstance, r.opts.Instances),
		scratch:  pk.SumScratch(),
		out:      make(chan *sealed, 256),
	}
	// A child's (relay, seq) names one batch on the whole side: reusing it
	// for another instance is a duplicate too.
	batches := make(map[batchID][32]byte)
	for i := range s.insts {
		s.insts[i] = &sideInstance{Intake: newIntake(s.rules, pk.N2, batches)}
	}
	return s
}

// errReplay marks a tolerated byte-identical duplicate: not an error, not
// new data.
var errReplay = fmt.Errorf("ingest: duplicate frame replayed")

// refuse counts and journals a refused frame; a replay passes uncounted.
func (s *side) refuse(err error) error {
	var rej *Rejection
	if errors.As(err, &rej) {
		relayRejected(s.name, rej.Reason).Inc()
		s.r.journalEvent(obs.Event{Type: obs.EventRejection, Instance: -1, Note: rej.Reason})
	}
	return err
}

// admit checks a decoded frame against its instance's intake and folds it
// into the open batch, sealing the batch when it reaches BatchSize.
func (s *side) admit(f Frame) (*sealed, error) {
	if f.Instance < 0 || f.Instance >= len(s.insts) {
		return nil, UnknownQuery(f.Instance)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	inst := s.insts[f.Instance]
	replay, err := inst.Check(f)
	switch {
	case err != nil:
		return nil, err
	case replay:
		return nil, errReplay // idempotent retransmission after a reconnect
	}
	inst.Record(f)
	s.mergeLocked(inst, f)
	return s.maybeSealLocked(f.Instance, inst, false), nil
}

// addUser admits one directly-submitted user frame.
func (s *side) addUser(msg *transport.Message) (*sealed, error) {
	f, err := s.rules.UserFrame(msg)
	if err != nil {
		return nil, s.refuse(err)
	}
	b, err := s.admit(f)
	if err != nil {
		return nil, s.refuse(err)
	}
	relayUsers(s.name).Inc()
	return b, nil
}

// addChild admits one child relay's combined frame and returns its ack —
// accepted for fresh data and a tolerated replay alike, rejected otherwise —
// or no ack for a frame that did not decode (it names no batch).
func (s *side) addChild(msg *transport.Message) (*sealed, *transport.Message, error) {
	f, err := s.rules.BatchFrame(msg)
	var b *sealed
	if err == nil {
		b, err = s.admit(f)
	}
	status, outcome := BatchAccepted, "accepted"
	switch {
	case err == errReplay:
		outcome = "replay"
	case err != nil:
		status, outcome = BatchRejected, "rejected"
		s.refuse(err)
	}
	relayBatchesIn(s.name, outcome).Inc()
	if !f.Combined {
		return nil, nil, err
	}
	return b, &transport.Message{Kind: transport.KindControl, Flags: []int64{CtrlBatchAck, f.Relay, f.Seq, status}}, err
}

// mergeLocked folds an admitted frame into the instance's open batch.
// Caller holds s.mu.
func (s *side) mergeLocked(inst *sideInstance, f Frame) {
	if inst.open == nil {
		inst.open = &openBatch{bm: new(big.Int)}
	}
	o := inst.open
	for fi, vec := range [3][]*paillier.Ciphertext{f.Half.Votes, f.Half.Thresh, f.Half.Noisy} {
		if o.sums[fi] == nil {
			o.sums[fi] = s.pk.NewSums(len(vec))
		}
		for i, ct := range vec {
			// Cannot fail: the intake checked every ciphertext lies in [0, N²).
			_ = o.sums[fi][i].Add(ct, s.scratch)
		}
	}
	o.bm.Or(o.bm, f.Members)
	o.n += Popcount(f.Members)
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
	var half [3][]*paillier.Ciphertext
	for fi, sums := range o.sums {
		half[fi] = make([]*paillier.Ciphertext, len(sums))
		for i := range sums {
			half[fi][i] = sums[i].Ciphertext(s.scratch)
		}
	}
	c := Combined{
		Relay:    s.r.opts.RelayID,
		Seq:      seq,
		Instance: instance,
		Bitmap:   o.bm,
		Half:     protocol.SubmissionHalf{Votes: half[0], Thresh: half[1], Noisy: half[2]},
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

// flushLoop seals non-empty open batches every flushInterval so a trickle
// of users is never stuck behind an unfilled batch.
func (s *side) flushLoop(ctx context.Context) {
	t := time.NewTicker(flushInterval)
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
			b, ack, _ := s.addChild(msg)
			s.push(ctx, b)
			// An undecodable child batch names no batch to ack: the frame
			// is dropped, the connection kept.
			if ack != nil && conn.Send(ctx, ack) != nil {
				return
			}
		default:
			// A refusal is counted; the connection stays.
			b, _ := s.addUser(msg)
			s.push(ctx, b)
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
