package deploy

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"github.com/privconsensus/privconsensus/internal/dgk"
	"github.com/privconsensus/privconsensus/internal/ingest"
	"github.com/privconsensus/privconsensus/internal/keystore"
	"github.com/privconsensus/privconsensus/internal/protocol"
	"github.com/privconsensus/privconsensus/internal/transport"
)

func testRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// testSetup generates key files for a small deployment.
func testSetup(t *testing.T, users int) (*keystore.S1File, *keystore.S2File, *keystore.PublicFile, protocol.Config) {
	t.Helper()
	cfg := protocol.DefaultConfig(users)
	cfg.Classes = 4
	cfg.Kappa = 24
	cfg.Sigma1, cfg.Sigma2 = 0, 0
	cfg.ThresholdFrac = 0.5
	cfg.DGK = dgk.Params{NBits: 160, TBits: 32, U: 1009, L: 50}
	// CHAOS_PACKED=1 (the `make chaos-packed` lane) flips every test
	// deployment to slot-packed submissions: the key files carry the mode,
	// so servers and users follow without per-test wiring. The assertions
	// stay identical — outcomes must not depend on the wire encoding.
	if os.Getenv("CHAOS_PACKED") == "1" {
		cfg.Packing = true
	}
	keys, err := protocol.GenerateKeys(testRNG(200), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2, pub, err := keystore.Split(cfg, keys)
	if err != nil {
		t.Fatal(err)
	}
	return s1, s2, pub, cfg
}

// cloneFile deep-copies a key file with a JSON round trip. S2 zeroizes its
// private keys in place on exit, so a test that runs two deployments on one
// key set hands each run its own copy.
func cloneFile[T any](t *testing.T, f *T) *T {
	t.Helper()
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	out := new(T)
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// serveGrid drains one user connection into cols the way RunIngest does:
// the frame's instance slot i names cols[i].
func serveGrid(ctx context.Context, conn transport.Conn, cfg protocol.Config, cols ...*collector) error {
	s := &serverSetup{cfg: cfg}
	return s.serveUserConn(ctx, conn, byIndex(cols), nil)
}

// outcomes returns a run's per-query outcomes in query order, or the first
// failed query's error.
func outcomes(results []InstanceResult) ([]protocol.Outcome, error) {
	out := make([]protocol.Outcome, len(results))
	for i, res := range results {
		if res.Err != nil {
			return nil, fmt.Errorf("instance %d failed after %d attempts: %w", res.Instance, res.Attempts, res.Err)
		}
		out[i] = res.Outcome
	}
	return out, nil
}

// oneHot builds a one-hot float vote vector.
func oneHot(classes, label int) []float64 {
	v := make([]float64, classes)
	v[label] = 1
	return v
}

// TestEndToEndDeployment spins up both servers and all users as real TCP
// endpoints and runs two query instances through the full protocol.
func TestEndToEndDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-endpoint deployment test is slow in -short mode")
	}
	const users = 3
	s1File, s2File, pubFile, cfg := testSetup(t, users)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	const instances = 2
	s1Ready := make(chan string, 1)
	s2Ready := make(chan string, 1)

	type serverResult struct {
		outcomes []protocol.Outcome
		err      error
	}
	s1Done := make(chan serverResult, 1)
	go func() {
		rep, err := ServeS1(ctx, []*keystore.S1File{s1File}, ServeOptions{ServerOptions: ServerOptions{
			ListenAddr: "127.0.0.1:0", Instances: instances, Seed: 201, Ready: s1Ready,
		}})
		if err != nil {
			s1Done <- serverResult{nil, err}
			return
		}
		out, err := outcomes(rep.Results)
		s1Done <- serverResult{out, err}
	}()
	s1Addr := <-s1Ready

	s2Done := make(chan serverResult, 1)
	go func() {
		rep, err := ServeS2(ctx, []*keystore.S2File{s2File}, ServeOptions{ServerOptions: ServerOptions{
			ListenAddr: "127.0.0.1:0", PeerAddr: s1Addr, Instances: instances, Seed: 202, Ready: s2Ready,
		}})
		if err != nil {
			s2Done <- serverResult{nil, err}
			return
		}
		out, err := outcomes(rep.Results)
		s2Done <- serverResult{out, err}
	}()
	s2Addr := <-s2Ready

	// Users: instance 0 unanimous on class 2; instance 1 split 3 ways.
	userErr := make(chan error, users)
	for u := 0; u < users; u++ {
		go func(u int) {
			votes := [][]float64{
				oneHot(cfg.Classes, 2),
				oneHot(cfg.Classes, u%cfg.Classes),
			}
			userErr <- SubmitVotes(ctx, pubFile, UserOptions{
				User: u, S1Addr: s1Addr, S2Addr: s2Addr, Seed: int64(300 + u),
			}, votes)
		}(u)
	}
	for u := 0; u < users; u++ {
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
		if r1.outcomes[i] != r2.outcomes[i] {
			t.Errorf("instance %d: servers disagree: %+v vs %+v", i, r1.outcomes[i], r2.outcomes[i])
		}
	}
	if !r1.outcomes[0].Consensus || r1.outcomes[0].Label != 2 {
		t.Errorf("instance 0: %+v, want consensus on 2", r1.outcomes[0])
	}
	if r1.outcomes[1].Consensus {
		t.Errorf("instance 1: %+v, want no consensus (split vote, T=50%% of 3)", r1.outcomes[1])
	}
}

// A connection with a garbage hello must be dropped without breaking the
// server: the deployment still completes with well-behaved parties.
func TestBadHelloIsDropped(t *testing.T) {
	if testing.Short() {
		t.Skip("deployment test is slow in -short mode")
	}
	const users = 2
	s1File, s2File, pubFile, cfg := testSetup(t, users)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	s1Ready := make(chan string, 1)
	s2Ready := make(chan string, 1)
	type serverResult struct {
		outcomes []protocol.Outcome
		err      error
	}
	s1Done := make(chan serverResult, 1)
	go func() {
		rep, err := ServeS1(ctx, []*keystore.S1File{s1File}, ServeOptions{ServerOptions: ServerOptions{
			ListenAddr: "127.0.0.1:0", Instances: 1, Seed: 400, Ready: s1Ready,
		}})
		if err != nil {
			s1Done <- serverResult{nil, err}
			return
		}
		out, err := outcomes(rep.Results)
		s1Done <- serverResult{out, err}
	}()
	s1Addr := <-s1Ready

	// Hostile/broken client: connects and sends a non-hello frame.
	rogue, err := transport.Dial(ctx, s1Addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := rogue.Send(ctx, &transport.Message{Kind: transport.KindBits}); err != nil {
		t.Fatal(err)
	}
	rogue.Close()

	s2Done := make(chan serverResult, 1)
	go func() {
		rep, err := ServeS2(ctx, []*keystore.S2File{s2File}, ServeOptions{ServerOptions: ServerOptions{
			ListenAddr: "127.0.0.1:0", PeerAddr: s1Addr, Instances: 1, Seed: 401, Ready: s2Ready,
		}})
		if err != nil {
			s2Done <- serverResult{nil, err}
			return
		}
		out, err := outcomes(rep.Results)
		s2Done <- serverResult{out, err}
	}()
	s2Addr := <-s2Ready

	for u := 0; u < users; u++ {
		if err := SubmitVotes(ctx, pubFile, UserOptions{
			User: u, S1Addr: s1Addr, S2Addr: s2Addr, Seed: int64(500 + u),
		}, [][]float64{oneHot(cfg.Classes, 1)}); err != nil {
			t.Fatalf("user %d: %v", u, err)
		}
	}
	r1 := <-s1Done
	r2 := <-s2Done
	if r1.err != nil || r2.err != nil {
		t.Fatalf("servers failed after rogue connection: %v / %v", r1.err, r2.err)
	}
	if !r1.outcomes[0].Consensus || r1.outcomes[0].Label != 1 {
		t.Errorf("outcome %+v, want consensus on 1", r1.outcomes[0])
	}
}

// A server whose users never show up must time out with a useful error.
func TestServerTimesOutOnMissingUsers(t *testing.T) {
	s1File, _, _, _ := testSetup(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		rep, err := ServeS1(ctx, []*keystore.S1File{s1File}, ServeOptions{ServerOptions: ServerOptions{
			ListenAddr: "127.0.0.1:0", Instances: 1, Ready: ready,
		}})
		if err == nil {
			_, err = outcomes(rep.Results)
		}
		done <- err
	}()
	addr := <-ready
	// Connect the peer so S1 advances to submission collection.
	peer, err := transport.Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	if err := sendHello(context.Background(), peer, partyPeer, peerCaps(s1File.Config)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected timeout error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not time out")
	}
}

func TestEncodeDecodeHalfRoundTrip(t *testing.T) {
	s1File, _, pubFile, cfg := testSetup(t, 2)
	_ = s1File
	units := make([][]float64, 1)
	units[0] = oneHot(cfg.Classes, 1)
	bigUnits, err := votesToUnits(units[0], cfg.Classes)
	if err != nil {
		t.Fatal(err)
	}
	sub, _, err := protocol.BuildSubmission(testRNG(210), testRNG(211), cfg, 0, bigUnits, pubFile.PK1, pubFile.PK2)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := ingest.EncodeHalf(1, 3, sub.ToS1)
	if err != nil {
		t.Fatal(err)
	}
	user, instance, half, err := ingest.DecodeHalf(msg)
	if err != nil {
		t.Fatal(err)
	}
	if user != 1 || instance != 3 {
		t.Errorf("indices %d/%d, want 1/3", user, instance)
	}
	if len(half.Votes) != cfg.Classes || len(half.Thresh) != cfg.Classes || len(half.Noisy) != cfg.Classes {
		t.Error("vector lengths wrong after decode")
	}
	for i := range half.Votes {
		if half.Votes[i].C.Cmp(sub.ToS1.Votes[i].C) != 0 {
			t.Errorf("vote ciphertext %d corrupted", i)
		}
	}
}

func TestDecodeHalfRejectsMalformed(t *testing.T) {
	if _, _, _, err := ingest.DecodeHalf(&transport.Message{Kind: transport.KindControl}); err == nil {
		t.Error("expected kind error")
	}
	if _, _, _, err := ingest.DecodeHalf(&transport.Message{
		Kind: transport.KindShares, Flags: []int64{0, 0, 5},
	}); err == nil {
		t.Error("expected value-count error")
	}
}

func TestEncodeHalfValidation(t *testing.T) {
	if _, err := ingest.EncodeHalf(0, 0, protocol.SubmissionHalf{}); err == nil {
		t.Error("expected error for empty half")
	}
}

func TestCollector(t *testing.T) {
	_, _, pubFile, cfg := testSetup(t, 2)
	col := newCollector(cfg, nil)

	bigUnits, err := votesToUnits(oneHot(cfg.Classes, 0), cfg.Classes)
	if err != nil {
		t.Fatal(err)
	}
	sub, _, err := protocol.BuildSubmission(testRNG(220), testRNG(221), cfg, 0, bigUnits, pubFile.PK1, pubFile.PK2)
	if err != nil {
		t.Fatal(err)
	}
	if err := submit(col, cfg, 0, sub.ToS1); err != nil {
		t.Fatal(err)
	}
	if err := submit(col, cfg, 0, sub.ToS1); err == nil {
		t.Error("expected duplicate error")
	}
	if err := submit(col, cfg, 5, sub.ToS1); err == nil {
		t.Error("expected user range error")
	}
	if byIndex([]*collector{col})(9) != nil {
		t.Error("expected no collector for an unregistered query")
	}
	// Timeout while one submission is missing.
	shortCtx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := col.wait(shortCtx, time.Now(), 0, "s1"); err == nil {
		t.Error("expected timeout with missing submissions")
	}
	// Complete it.
	if err := submit(col, cfg, 1, sub.ToS1); err != nil {
		t.Fatal(err)
	}
	if err := col.wait(context.Background(), time.Now(), 0, "s1"); err != nil {
		t.Errorf("wait after completion: %v", err)
	}
	got, err := col.maskedGroups(col.bitmap())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("maskedGroups returned %d groups", len(got))
	}
}

func TestVotesToUnits(t *testing.T) {
	if _, err := votesToUnits([]float64{1, 0}, 3); err == nil {
		t.Error("expected length error")
	}
	if _, err := votesToUnits([]float64{2, 0, 0}, 3); err == nil {
		t.Error("expected range error")
	}
	units, err := votesToUnits([]float64{0.5, 0.5, 0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if units[0].Int64() != protocol.VoteScale/2 {
		t.Errorf("unit conversion wrong: %v", units[0])
	}
}

func TestServerOptionValidation(t *testing.T) {
	s1File, s2File, pubFile, cfg := testSetup(t, 2)
	ctx := context.Background()
	serve := func(opts ServerOptions) (err1, err2 error) {
		_, err1 = ServeS1(ctx, []*keystore.S1File{s1File}, ServeOptions{ServerOptions: opts})
		_, err2 = ServeS2(ctx, []*keystore.S2File{s2File}, ServeOptions{ServerOptions: opts})
		return err1, err2
	}
	if err1, err2 := serve(ServerOptions{ListenAddr: "127.0.0.1:0", PeerAddr: "127.0.0.1:1", Instances: -1}); err1 == nil || err2 == nil {
		t.Errorf("Instances -1 accepted: S1 %v, S2 %v", err1, err2)
	}
	if _, err := ServeS2(ctx, []*keystore.S2File{s2File}, ServeOptions{ServerOptions: ServerOptions{ListenAddr: "127.0.0.1:0", Instances: 1}}); err == nil {
		t.Error("expected peer-address error")
	}
	// A negative retry budget would run zero attempts and report a ⊥ the
	// protocol never produced; every entry point refuses it.
	if err1, err2 := serve(ServerOptions{ListenAddr: "127.0.0.1:0", PeerAddr: "127.0.0.1:1", Instances: 1, MaxRetries: -1}); err1 == nil || err2 == nil {
		t.Errorf("negative retry budget accepted: S1 %v, S2 %v", err1, err2)
	}
	if err := SubmitVotes(ctx, pubFile, UserOptions{MaxRetries: -1}, [][]float64{oneHot(cfg.Classes, 0)}); err == nil {
		t.Error("user client accepted a negative retry budget")
	}
	if _, err := NewServeClient([]*keystore.PublicFile{pubFile}, ServeClientOptions{MaxRetries: -1}); err == nil {
		t.Error("serve client accepted a negative retry budget")
	}
}

func TestSubmitVotesValidation(t *testing.T) {
	_, _, pubFile, cfg := testSetup(t, 2)
	ctx := context.Background()
	if err := SubmitVotes(ctx, pubFile, UserOptions{User: 9}, [][]float64{oneHot(cfg.Classes, 0)}); err == nil {
		t.Error("expected user range error")
	}
	if err := SubmitVotes(ctx, pubFile, UserOptions{User: 0}, nil); err == nil {
		t.Error("expected empty-instances error")
	}
}

func TestDefaultLoggerAndNewRNG(t *testing.T) {
	logf := DefaultLogger("[test] ")
	logf("hello %d", 42) // must not panic
	if newRNG(0) == nil || newRNG(5) == nil {
		t.Error("newRNG returned nil")
	}
}
