package deploy

import (
	"context"
	"errors"
	"math/big"
	"testing"
	"time"

	"github.com/privconsensus/privconsensus/internal/keystore"
	"github.com/privconsensus/privconsensus/internal/protocol"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// TestChaosUserDropoutSchedule runs a 20-user partial-participation
// deployment through a seeded dropout schedule: 25% of the users never
// connect, 10% disconnect mid-upload (and replay through the resilient
// client), and 5% send malformed shares that server-side validation must
// reject. The acceptance bar: the run terminates, every instance either
// reaches the correct consensus label over the agreed participant set or
// fails cleanly with ErrQuorumNotMet, the two servers never disagree, and
// the hostile submissions are counted as rejected.
func TestChaosUserDropoutSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos deployment test is slow in -short mode")
	}
	const (
		users     = 20
		instances = 2
		// The dropout schedule, seeded by user index: 15..19 never connect
		// (25%), 12..13 reset mid-upload and replay (10%), 14 sends
		// malformed shares (5%), 0..11 are honest.
		firstFlaky    = 12
		malformedUser = 14
		firstAbsent   = 15
	)
	s1File, s2File, pubFile, cfg := testSetup(t, users)

	rejectedBefore := submissionsRejected("bad-length").Value() +
		submissionsRejected("out-of-ring").Value()

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	partial := func(listen, peer string, seed int64, ready chan string) ServerOptions {
		return ServerOptions{
			ListenAddr:     listen,
			PeerAddr:       peer,
			Instances:      instances,
			Seed:           seed,
			Ready:          ready,
			Quorum:         0.5, // 10 of 20
			SubmitDeadline: 20 * time.Second,
			MaxRetries:     4,
			Backoff:        5 * time.Millisecond,
			AttemptTimeout: 45 * time.Second,
		}
	}
	s1Ready := make(chan string, 1)
	s1Done := make(chan s1ServeResult, 1)
	go func() {
		rep, err := ServeS1(ctx, []*keystore.S1File{s1File}, ServeOptions{ServerOptions: partial("127.0.0.1:0", "", 901, s1Ready)})
		s1Done <- s1ServeResult{rep, err}
	}()
	s1Addr := <-s1Ready
	s2Ready := make(chan string, 1)
	s2Done := make(chan s2ServeResult, 1)
	go func() {
		rep, err := ServeS2(ctx, []*keystore.S2File{s2File}, ServeOptions{ServerOptions: partial("127.0.0.1:0", s1Addr, 902, s2Ready)})
		s2Done <- s2ServeResult{rep, err}
	}()
	s2Addr := <-s2Ready

	// Honest and flaky users all vote class 1 unanimously; any instance
	// that runs must therefore report consensus on label 1 over whatever
	// subset was agreed — a wrong label is a hard failure, not chaos noise.
	votes := make([][]float64, instances)
	for i := range votes {
		votes[i] = oneHot(cfg.Classes, 1)
	}
	present := firstAbsent - 1 // users 0..13 upload; 14 is counted separately
	userErr := make(chan error, present)
	for u := 0; u < firstAbsent; u++ {
		if u == malformedUser {
			continue
		}
		go func(u int) {
			opts := UserOptions{
				User:           u,
				S1Addr:         s1Addr,
				S2Addr:         s2Addr,
				Seed:           int64(910 + u),
				MaxRetries:     8,
				Backoff:        2 * time.Millisecond,
				AttemptTimeout: 30 * time.Second,
			}
			if u >= firstFlaky {
				// Mid-upload disconnects: a bounded seeded reset schedule
				// on the client's own connections; the resilient upload
				// replays and the collector dedups.
				opts.FaultSpec = "seed=13,reset=0.3,max=2"
			}
			userErr <- SubmitVotes(ctx, pubFile, opts, votes)
		}(u)
	}
	// The malformed user: well-framed wire messages whose payloads violate
	// the submission contract — a wrong vote-vector length for instance 0
	// and out-of-ring ciphertexts for instance 1. Both must be rejected and
	// excluded from the participant set without breaking the server.
	sendMalformed(ctx, t, s1Addr, malformedUser, cfg)
	sendMalformed(ctx, t, s2Addr, malformedUser, cfg)

	for u := 0; u < present; u++ {
		if err := <-userErr; err != nil {
			t.Fatalf("user submit under dropout schedule: %v", err)
		}
	}

	r1 := <-s1Done
	r2 := <-s2Done
	if r1.err != nil {
		t.Fatalf("S1 structural failure: %v", r1.err)
	}
	if r2.err != nil {
		t.Fatalf("S2 structural failure: %v", r2.err)
	}

	quorum := protocol.QuorumCount(0.5, users, 1)
	for i := 0; i < instances; i++ {
		a, b := r1.rep.Results[i], r2.rep.Results[i]
		switch {
		case a.Err == nil && b.Err == nil:
			if a.Outcome != b.Outcome {
				t.Errorf("instance %d: servers disagree: %+v vs %+v", i, a.Outcome, b.Outcome)
			}
			if !a.Outcome.Consensus || a.Outcome.Label != 1 {
				t.Errorf("instance %d: outcome %+v, want consensus on label 1 over the agreed set", i, a.Outcome)
			}
			if a.Participants < quorum || a.Participants > present {
				t.Errorf("instance %d: %d participants outside [%d, %d]", i, a.Participants, quorum, present)
			}
			if a.Participants+a.Dropped != users {
				t.Errorf("instance %d: participants %d + dropped %d != %d users", i, a.Participants, a.Dropped, users)
			}
		case errors.Is(a.Err, protocol.ErrQuorumNotMet) || errors.Is(b.Err, protocol.ErrQuorumNotMet):
			t.Logf("instance %d cleanly missed quorum: s1=%v s2=%v", i, a.Err, b.Err)
		default:
			t.Errorf("instance %d did not fail cleanly: s1=%v s2=%v", i, a.Err, b.Err)
		}
	}

	rejectedAfter := submissionsRejected("bad-length").Value() +
		submissionsRejected("out-of-ring").Value()
	if rejectedAfter <= rejectedBefore {
		t.Error("malformed submissions were not counted as rejected")
	}
}

// sendMalformed delivers two hostile-but-well-framed submission frames to
// one server: a vector of the wrong ciphertext count, and ciphertexts far
// outside the Paillier ring. In packed mode the frames are self-consistent
// KindPacked frames with the same two defects, so both wire modes exercise
// the same bad-length and out-of-ring rejection counters.
func sendMalformed(ctx context.Context, t *testing.T, addr string, user int, cfg protocol.Config) {
	t.Helper()
	conn, err := transport.Dial(ctx, addr)
	if err != nil {
		t.Fatalf("malformed user dial: %v", err)
	}
	defer conn.Close()
	if err := sendHello(ctx, conn, partyUser, 0); err != nil {
		t.Fatalf("malformed user hello: %v", err)
	}
	frame := func(instance, k int, val *big.Int) *transport.Message {
		values := make([]*big.Int, 3*k)
		for i := range values {
			values[i] = val
		}
		if cfg.Packing {
			return &transport.Message{
				Kind: transport.KindPacked,
				Flags: []int64{int64(user), int64(instance), int64(cfg.Classes),
					int64(cfg.PackedWidth()), int64(k)},
				Values: values,
			}
		}
		return &transport.Message{
			Kind:   transport.KindShares,
			Flags:  []int64{int64(user), int64(instance), int64(k)},
			Values: values,
		}
	}
	// Instance 0: wrong per-sequence ciphertext count. Instance 1: values
	// no 64-bit (or production-size) Paillier ring can contain.
	perVec := cfg.Classes
	if cfg.Packing {
		perVec = cfg.PackedCiphertexts()
	}
	huge := new(big.Int).Lsh(big.NewInt(1), 4100)
	for _, m := range []*transport.Message{
		frame(0, perVec+1, big.NewInt(7)),
		frame(1, perVec, huge),
	} {
		if err := conn.Send(ctx, m); err != nil {
			t.Fatalf("malformed user send: %v", err)
		}
	}
}
