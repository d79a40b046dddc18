package deploy

import (
	"context"
	"errors"
	"math/big"
	"testing"
	"time"

	"github.com/privconsensus/privconsensus/internal/ingest"
	"github.com/privconsensus/privconsensus/internal/keystore"
	"github.com/privconsensus/privconsensus/internal/paillier"
	"github.com/privconsensus/privconsensus/internal/protocol"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// testHalf builds a well-shaped submission half whose ciphertexts all carry
// the given value (no real crypto — collector validation only looks at
// shape and ring membership).
func testHalf(classes int, val int64) protocol.SubmissionHalf {
	group := func() []*paillier.Ciphertext {
		out := make([]*paillier.Ciphertext, classes)
		for i := range out {
			out[i] = &paillier.Ciphertext{C: big.NewInt(val)}
		}
		return out
	}
	return protocol.SubmissionHalf{Votes: group(), Thresh: group(), Noisy: group()}
}

// submit runs one user frame for query 0 through what serveUserConn does
// with it: decode and identify it in cfg's rules, then add it.
func submit(col *collector, cfg protocol.Config, user int, h protocol.SubmissionHalf) error {
	msg, err := encodeSubmission(cfg, user, 0, h)
	if err != nil {
		return err
	}
	f, err := ingest.ConfigRules(cfg).UserFrame(msg)
	if err != nil {
		return rejectSubmission(nil, err)
	}
	return col.add(f)
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

// TestCollectorValidation drives every rejection path of the hardened
// ingestion: hostile frames are refused with the right reason and never
// enter the grid, while the one tolerated case (byte-identical replay)
// keeps exact-once semantics.
func TestCollectorValidation(t *testing.T) {
	const classes = 3
	ring := big.NewInt(1000)
	cfg := protocol.Config{Users: 2, Classes: classes}
	col := newCollector(cfg, ring)

	reject := func(name string, user int, h protocol.SubmissionHalf) {
		t.Helper()
		err := submit(col, cfg, user, h)
		if !errors.Is(err, errRejectedSubmission) {
			t.Errorf("%s: err = %v, want rejection", name, err)
		}
	}
	reject("unknown user", -1, testHalf(classes, 5))
	reject("unknown user high", 2, testHalf(classes, 5))
	reject("bad length", 0, testHalf(classes+1, 5))
	reject("out of ring", 0, testHalf(classes, 1000))
	reject("negative ciphertext", 0, testHalf(classes, -3))

	if err := submit(col, cfg, 0, testHalf(classes, 5)); err != nil {
		t.Fatalf("valid submission rejected: %v", err)
	}
	// Byte-identical replay: tolerated duplicate, still one participant.
	if err := submit(col, cfg, 0, testHalf(classes, 5)); !errors.Is(err, errDuplicateSubmission) {
		t.Errorf("identical replay: err = %v, want duplicate sentinel", err)
	}
	// Conflicting resubmission: first write wins.
	reject("conflicting resubmission", 0, testHalf(classes, 6))
	if bm := col.bitmap(); ingest.Popcount(bm) != 1 || bm.Bit(0) != 1 {
		t.Errorf("bitmap after replays = %v, want only user 0", bm)
	}
	got, _ := col.counts()
	if got != 1 {
		t.Errorf("counts after replays = %d cells, want 1", got)
	}

	// After release, anything new is late; the stored grid stays frozen.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := col.wait(ctx, time.Now(), time.Millisecond, "s1"); err != nil {
		t.Fatal(err)
	}
	reject("late", 1, testHalf(classes, 5))
	// An identical replay of a pre-release submission is still tolerated
	// after release (the reconnecting user is not a new participant).
	if err := submit(col, cfg, 0, testHalf(classes, 5)); !errors.Is(err, errDuplicateSubmission) {
		t.Errorf("post-release identical replay: err = %v, want duplicate sentinel", err)
	}
}

// TestCollectorDedupReplay asserts the exact-once guarantee the resilient
// upload leans on: a reconnect replay counts as one participant and leaves
// the stored bytes untouched, so the aggregated sum cannot double-spend a
// vote.
func TestCollectorDedupReplay(t *testing.T) {
	const classes = 2
	cfg := protocol.Config{Users: 3, Classes: classes}
	col := newCollector(cfg, nil)
	h := testHalf(classes, 42)
	if err := submit(col, cfg, 1, h); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // replayed upload after reconnects
		if err := submit(col, cfg, 1, testHalf(classes, 42)); !errors.Is(err, errDuplicateSubmission) {
			t.Fatalf("replay %d: err = %v, want duplicate sentinel", i, err)
		}
	}
	bm := col.bitmap()
	if ingest.Popcount(bm) != 1 {
		t.Fatalf("replays inflated the participant set: bitmap %v", bm)
	}
	groups, err := col.maskedGroups(bm)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 || len(groups[0].Members) != 1 || groups[0].Members[0] != 1 {
		t.Fatalf("masked groups = %+v, want the single user 1", groups)
	}
	if !groups[0].Half.Present() || !halfEqual(groups[0].Half, h) {
		t.Error("stored submission bytes changed across replays")
	}
}

// gatedConn holds every Send until the test opens the gate, announcing
// each on sending first: the test observes the collector at the exact
// moment an ack is about to leave.
type gatedConn struct {
	transport.Conn
	sending chan struct{}
	gate    chan struct{}
}

func (g *gatedConn) Send(ctx context.Context, msg *transport.Message) error {
	g.sending <- struct{}{}
	<-g.gate
	return g.Conn.Send(ctx, msg)
}

// TestCollectorReleasesAfterAck pins "ack before release": the grid is full
// the moment the last frame is recorded, but wait() must not return — and
// the run must not get to tear its listener down — until that uploader's
// done/ack exchange has completed, or its connection is gone.
func TestCollectorReleasesAfterAck(t *testing.T) {
	const classes = 2
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	released := func(col *collector) bool {
		select {
		case <-col.done:
			return true
		default:
			return false
		}
	}
	upload := func(t *testing.T, user transport.Conn) {
		t.Helper()
		frame, err := ingest.EncodeHalf(0, 0, testHalf(classes, 7))
		if err != nil {
			t.Fatal(err)
		}
		if err := user.Send(ctx, frame); err != nil {
			t.Fatal(err)
		}
	}

	cfg := protocol.Config{Users: 1, Classes: classes}
	t.Run("ack", func(t *testing.T) {
		col := newCollector(cfg, nil)
		user, server := transport.Pair()
		defer user.Close()
		gated := &gatedConn{Conn: server, sending: make(chan struct{}), gate: make(chan struct{})}
		served := make(chan error, 1)
		go func() { served <- serveGrid(ctx, gated, cfg, col) }()

		upload(t, user)
		if err := transport.SendControl(ctx, user, ctrlUploadDone, 0); err != nil {
			t.Fatal(err)
		}
		<-gated.sending // the frame is recorded and the ack is about to leave
		if got, _ := col.counts(); got != 1 {
			t.Fatalf("grid holds %d submissions at ack time, want 1", got)
		}
		if released(col) {
			t.Fatal("collector released while the last uploader's ack was still in flight")
		}
		close(gated.gate)
		if _, err := transport.ExpectControl(ctx, user, ctrlUploadAck); err != nil {
			t.Fatalf("upload ack: %v", err)
		}
		if err := col.wait(ctx, time.Now(), 0, "s1"); err != nil {
			t.Fatalf("collector did not release after the ack: %v", err)
		}
		user.Close()
		if err := <-served; err != nil {
			t.Fatal(err)
		}
	})

	// An uploader may die before its done frame: the closed connection
	// settles the debt.
	t.Run("hangup", func(t *testing.T) {
		col := newCollector(cfg, nil)
		user, server := transport.Pair()
		served := make(chan error, 1)
		go func() { served <- serveGrid(ctx, server, cfg, col) }()
		upload(t, user)
		user.Close()
		if err := <-served; err != nil {
			t.Fatal(err)
		}
		if !released(col) {
			t.Fatal("collector still holding the release after the uploader hung up")
		}
	})
}

// TestParticipantExchange runs the bitmap agreement over a live pipe: the
// agreed set is the intersection of the two servers' local sets on both
// ends.
func TestParticipantExchange(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	a, b := transport.Pair()
	defer a.Close()
	defer b.Close()

	bits := func(idx ...int) *big.Int {
		bm := new(big.Int)
		for _, u := range idx {
			bm.SetBit(bm, u, 1)
		}
		return bm
	}
	type res struct {
		agreed *big.Int
		err    error
	}
	ch := make(chan res, 1)
	go func() {
		agreed, err := exchangeParticipantsS1(ctx, a, 4, bits(0, 2, 3))
		ch <- res{agreed, err}
	}()
	agreed2, err := exchangeParticipantsS2(ctx, b, 4, bits(0, 1, 3))
	if err != nil {
		t.Fatalf("S2 exchange: %v", err)
	}
	r1 := <-ch
	if r1.err != nil {
		t.Fatalf("S1 exchange: %v", r1.err)
	}
	want := bits(0, 3)
	if r1.agreed.Cmp(want) != 0 || agreed2.Cmp(want) != 0 {
		t.Errorf("agreed sets %v / %v, want %v on both ends", r1.agreed, agreed2, want)
	}
}

// TestParticipantExchangeMismatchIsFatal: an ack claiming users S1 never
// proposed means the servers would sum different subsets — S1 must classify
// it fatal (non-retryable) instead of running the protocol.
func TestParticipantExchangeMismatchIsFatal(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	a, b := transport.Pair()
	defer a.Close()
	defer b.Close()

	go func() {
		// Hostile S2: acks with a superset of the proposal.
		if _, err := transport.ExpectKind(ctx, b, transport.KindControl); err != nil {
			return
		}
		_ = b.Send(ctx, &transport.Message{
			Kind:   transport.KindControl,
			Flags:  []int64{ctrlParticipantsAck, 0},
			Values: []*big.Int{big.NewInt(0b111)},
		})
	}()
	_, err := exchangeParticipantsS1(ctx, a, 0, big.NewInt(0b011))
	if err == nil {
		t.Fatal("non-subset ack accepted")
	}
	if !errors.Is(err, protocol.ErrPeerMismatch) {
		t.Errorf("err = %v, want ErrPeerMismatch", err)
	}
	if transport.IsRetryable(err) {
		t.Errorf("bitmap mismatch classified retryable: %v", err)
	}

	// Malformed frame on the S2 side: wrong instance index is fatal too.
	c, d := transport.Pair()
	defer c.Close()
	defer d.Close()
	go func() {
		_ = c.Send(ctx, &transport.Message{
			Kind:   transport.KindControl,
			Flags:  []int64{ctrlParticipants, 9},
			Values: []*big.Int{big.NewInt(1)},
		})
	}()
	_, err = exchangeParticipantsS2(ctx, d, 2, big.NewInt(1))
	if err == nil || transport.IsRetryable(err) {
		t.Errorf("cross-instance participants frame not fatal: %v", err)
	}
}

// TestPartialDeploymentEndToEnd runs the full two-server TCP deployment
// with a submit deadline while one configured user never shows up: both
// instances must complete over the two present users and report the same
// participant-aware outcome.
func TestPartialDeploymentEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-endpoint deployment test is slow in -short mode")
	}
	const users = 3
	s1File, s2File, pubFile, cfg := testSetup(t, users)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	const instances = 2
	partial := func(listen, peer string, seed int64, ready chan string) ServerOptions {
		return ServerOptions{
			ListenAddr:     listen,
			PeerAddr:       peer,
			Instances:      instances,
			Seed:           seed,
			Ready:          ready,
			Quorum:         0.5,
			SubmitDeadline: 5 * time.Second,
			AttemptTimeout: 45 * time.Second,
		}
	}

	s1Ready := make(chan string, 1)
	s1Done := make(chan s1ServeResult, 1)
	go func() {
		rep, err := ServeS1(ctx, []*keystore.S1File{s1File}, ServeOptions{ServerOptions: partial("127.0.0.1:0", "", 211, s1Ready)})
		s1Done <- s1ServeResult{rep, err}
	}()
	s1Addr := <-s1Ready

	s2Ready := make(chan string, 1)
	s2Done := make(chan s2ServeResult, 1)
	go func() {
		rep, err := ServeS2(ctx, []*keystore.S2File{s2File}, ServeOptions{ServerOptions: partial("127.0.0.1:0", s1Addr, 212, s2Ready)})
		s2Done <- s2ServeResult{rep, err}
	}()
	s2Addr := <-s2Ready

	// Users 0 and 1 vote class 2 on both instances; user 2 never connects.
	userErr := make(chan error, 2)
	for u := 0; u < 2; u++ {
		go func(u int) {
			votes := [][]float64{oneHot(cfg.Classes, 2), oneHot(cfg.Classes, 2)}
			userErr <- SubmitVotes(ctx, pubFile, UserOptions{
				User: u, S1Addr: s1Addr, S2Addr: s2Addr, Seed: int64(320 + u),
			}, votes)
		}(u)
	}
	for u := 0; u < 2; u++ {
		if err := <-userErr; err != nil {
			t.Fatalf("user submit: %v", err)
		}
	}

	r1 := <-s1Done
	r2 := <-s2Done
	if r1.err != nil {
		t.Fatalf("S1: %v", r1.err)
	}
	if r2.err != nil {
		t.Fatalf("S2: %v", r2.err)
	}
	for i := 0; i < instances; i++ {
		a, b := r1.rep.Results[i], r2.rep.Results[i]
		if a.Err != nil || b.Err != nil {
			t.Fatalf("instance %d failed: s1=%v s2=%v", i, a.Err, b.Err)
		}
		if a.Outcome != b.Outcome {
			t.Errorf("instance %d: servers disagree: %+v vs %+v", i, a.Outcome, b.Outcome)
		}
		if a.Participants != 2 || a.Dropped != 1 {
			t.Errorf("instance %d: participants=%d dropped=%d, want 2/1", i, a.Participants, a.Dropped)
		}
		// Unanimous among the participants and T = 50% of 2 participants:
		// the dropout must not block consensus.
		if !a.Outcome.Consensus || a.Outcome.Label != 2 {
			t.Errorf("instance %d: outcome %+v, want consensus on 2 over the partial set", i, a.Outcome)
		}
		if a.Outcome.Participants != 2 {
			t.Errorf("instance %d: outcome participants = %d, want 2", i, a.Outcome.Participants)
		}
	}
}

// TestQuorumNotMetEndToEnd: with a quorum above the turnout both servers
// must release at the deadline, agree the instance cannot run, fail it with
// ErrQuorumNotMet — and not hang or tear down the deployment.
func TestQuorumNotMetEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-endpoint deployment test is slow in -short mode")
	}
	const users = 3
	s1File, s2File, pubFile, cfg := testSetup(t, users)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	opts := func(listen, peer string, seed int64, ready chan string) ServerOptions {
		return ServerOptions{
			ListenAddr:     listen,
			PeerAddr:       peer,
			Instances:      1,
			Seed:           seed,
			Ready:          ready,
			Quorum:         3, // all three users — but only one shows up
			SubmitDeadline: 2 * time.Second,
			AttemptTimeout: 30 * time.Second,
		}
	}
	s1Ready := make(chan string, 1)
	s1Done := make(chan s1ServeResult, 1)
	go func() {
		rep, err := ServeS1(ctx, []*keystore.S1File{s1File}, ServeOptions{ServerOptions: opts("127.0.0.1:0", "", 221, s1Ready)})
		s1Done <- s1ServeResult{rep, err}
	}()
	s1Addr := <-s1Ready
	s2Ready := make(chan string, 1)
	s2Done := make(chan s2ServeResult, 1)
	go func() {
		rep, err := ServeS2(ctx, []*keystore.S2File{s2File}, ServeOptions{ServerOptions: opts("127.0.0.1:0", s1Addr, 222, s2Ready)})
		s2Done <- s2ServeResult{rep, err}
	}()
	s2Addr := <-s2Ready

	if err := SubmitVotes(ctx, pubFile, UserOptions{
		User: 0, S1Addr: s1Addr, S2Addr: s2Addr, Seed: 330,
	}, [][]float64{oneHot(cfg.Classes, 1)}); err != nil {
		t.Fatalf("user submit: %v", err)
	}

	r1 := <-s1Done
	r2 := <-s2Done
	if r1.err != nil {
		t.Fatalf("S1 structural failure: %v", r1.err)
	}
	if r2.err != nil {
		t.Fatalf("S2 structural failure: %v", r2.err)
	}
	for role, results := range map[string][]InstanceResult{"s1": r1.rep.Results, "s2": r2.rep.Results} {
		res := results[0]
		if !errors.Is(res.Err, protocol.ErrQuorumNotMet) {
			t.Errorf("%s instance 0: err = %v, want ErrQuorumNotMet", role, res.Err)
		}
		if res.Participants != 1 || res.Dropped != 2 {
			t.Errorf("%s instance 0: participants=%d dropped=%d, want 1/2", role, res.Participants, res.Dropped)
		}
		if res.Outcome.Consensus || res.Outcome.Label != -1 {
			t.Errorf("%s instance 0: outcome %+v, want the clean placeholder", role, res.Outcome)
		}
	}
}
