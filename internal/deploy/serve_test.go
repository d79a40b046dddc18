package deploy

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	mrand "math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/privconsensus/privconsensus/internal/dgk"
	"github.com/privconsensus/privconsensus/internal/dp"
	"github.com/privconsensus/privconsensus/internal/keystore"
	"github.com/privconsensus/privconsensus/internal/obs"
	"github.com/privconsensus/privconsensus/internal/protocol"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// epsAfter computes the (ε, δ)-DP spend of n worst-case queries at the
// given cost coefficient, the quantity the ledger projects at admission.
func epsAfter(t *testing.T, cost float64, n int, delta float64) float64 {
	t.Helper()
	a := dp.NewAccountant()
	a.Add(dp.Spend{Coefficient: cost * float64(n)})
	eps, _, err := a.Epsilon(delta)
	if err != nil {
		t.Fatal(err)
	}
	return eps
}

// serveTestSetup generates key files for a serve-mode deployment with the
// given number of pre-provisioned epochs (distinct key material per
// epoch, identical config).
func serveTestSetup(t *testing.T, users, epochs int, sigma1, sigma2 float64) (
	[]*keystore.S1File, []*keystore.S2File, []*keystore.PublicFile, protocol.Config) {
	t.Helper()
	cfg := protocol.DefaultConfig(users)
	cfg.Classes = 4
	cfg.Kappa = 24
	cfg.Sigma1, cfg.Sigma2 = sigma1, sigma2
	cfg.ThresholdFrac = 0.5
	cfg.DGK = dgk.Params{NBits: 160, TBits: 32, U: 1009, L: 50}
	if os.Getenv("CHAOS_PACKED") == "1" {
		cfg.Packing = true
	}
	var s1s []*keystore.S1File
	var s2s []*keystore.S2File
	var pubs []*keystore.PublicFile
	for e := 0; e < epochs; e++ {
		keys, err := protocol.GenerateKeys(testRNG(int64(210+37*e)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		s1, s2, pub, err := keystore.Split(cfg, keys)
		if err != nil {
			t.Fatal(err)
		}
		s1s, s2s, pubs = append(s1s, s1), append(s2s, s2), append(pubs, pub)
	}
	return s1s, s2s, pubs, cfg
}

// serveResult carries one server goroutine's return.
type s1ServeResult struct {
	rep *ServeReport
	err error
}

type s2ServeResult struct {
	rep *Report
	err error
}

// admitRaw performs a raw admission handshake on an open S1 user conn.
func admitRaw(ctx context.Context, t *testing.T, conn transport.Conn, tenant, nonce int64) (status int64, qid, epoch int) {
	t.Helper()
	if err := transport.SendControl(ctx, conn, ctrlAdmitRequest, tenant, nonce); err != nil {
		t.Fatalf("admit request: %v", err)
	}
	reply, err := transport.ExpectControl(ctx, conn, ctrlAdmitReply)
	if err != nil {
		t.Fatalf("admit reply: %v", err)
	}
	if len(reply) < 3 {
		t.Fatalf("short admit reply %v", reply)
	}
	return reply[0], int(reply[1]), int(reply[2])
}

// serveUserConnTo dials addr and performs the user hello.
func serveUserConnTo(ctx context.Context, t *testing.T, addr string) transport.Conn {
	t.Helper()
	conn, err := transport.Dial(ctx, addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	if err := sendHello(ctx, conn, partyUser, 0); err != nil {
		t.Fatalf("hello: %v", err)
	}
	return conn
}

// uploadQueryRaw builds and delivers every user's halves for one granted
// query ID over the given open connections, with the done/ack barrier.
func uploadQueryRaw(ctx context.Context, t *testing.T, cfg protocol.Config, pub *keystore.PublicFile,
	qid, label int, crypto io.Reader, noise *mrand.Rand, conn1, conn2 transport.Conn) {
	t.Helper()
	uploadUsersRaw(ctx, t, cfg, pub, qid, label, cfg.Users, crypto, noise, conn1, conn2)
}

// uploadUsersRaw is uploadQueryRaw for users [0, present) only: the rest are
// withheld, as users that never show up.
func uploadUsersRaw(ctx context.Context, t *testing.T, cfg protocol.Config, pub *keystore.PublicFile,
	qid, label, present int, crypto io.Reader, noise *mrand.Rand, conn1, conn2 transport.Conn) {
	t.Helper()
	for user := 0; user < present; user++ {
		units, err := votesToUnits(oneHot(cfg.Classes, label), cfg.Classes)
		if err != nil {
			t.Fatal(err)
		}
		sub, _, err := protocol.BuildSubmission(crypto, noise, cfg, user, units, pub.PK1, pub.PK2)
		if err != nil {
			t.Fatal(err)
		}
		m1, err := encodeSubmission(cfg, user, qid, sub.ToS1)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := encodeSubmission(cfg, user, qid, sub.ToS2)
		if err != nil {
			t.Fatal(err)
		}
		if err := conn1.Send(ctx, m1); err != nil {
			t.Fatalf("send to S1: %v", err)
		}
		if err := conn2.Send(ctx, m2); err != nil {
			t.Fatalf("send to S2: %v", err)
		}
	}
	for _, conn := range []transport.Conn{conn1, conn2} {
		if err := transport.SendControl(ctx, conn, ctrlUploadDone, -1); err != nil {
			t.Fatalf("upload done: %v", err)
		}
		if _, err := transport.ExpectControl(ctx, conn, ctrlUploadAck); err != nil {
			t.Fatalf("upload ack: %v", err)
		}
	}
}

// healthzState fetches /healthz and returns (status code, body state).
func healthzState(t *testing.T, addr string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 256))
	if err != nil {
		t.Fatalf("healthz body: %v", err)
	}
	return resp.StatusCode, strings.TrimSpace(string(body))
}

// TestRotateAfterCountsAnnouncedAdmissions holds RotateAfter to admissions
// S2 acknowledged: S2 refuses the announce of the admission that would reach
// the count, and the next admission it acks must still kick the rotation.
func TestRotateAfterCountsAnnouncedAdmissions(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := ServeOptions{RotateAfter: 2}
	st := admissionState(ctx, t, protocol.DefaultConfig(2), opts, func(qid, _ int64) bool { return qid != 1 })
	for nonce, want := range []struct {
		status int64
		kick   bool
	}{{admitOK, false}, {admitUnavailable, false}, {admitOK, true}} {
		status, _, _ := st.admit(ctx, 7, int64(nonce))
		kicked := false
		select {
		case <-st.rotateKick:
			kicked = true
		default:
		}
		if status != want.status || kicked != want.kick {
			t.Fatalf("admission %d: status %d, rotation kicked %v; want %d, %v", nonce, status, kicked, want.status, want.kick)
		}
	}
}

// TestServeGracefulShutdown covers the serve-mode lifecycle end to end:
// pipelined admission (a second query completes while the first is still
// collecting), the admission window (a third admit while two queries are in
// flight is refused with the typed overloaded status, and granted once one
// resolves), the replay window (a resolved query's admit and result wait
// replay as answered, its uploads are unknown-query), /healthz readiness
// transitions, the drain handshake (stop admitting, finish in-flight
// queries, flush state) and journal integrity with no torn tail.
func TestServeGracefulShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("serve deployment test is slow in -short mode")
	}
	const users = 2
	s1Files, s2Files, pubs, cfg := serveTestSetup(t, users, 1, 0, 0)
	journalDir := t.TempDir()
	s1Journal := filepath.Join(journalDir, "s1.jsonl")
	s2Journal := filepath.Join(journalDir, "s2.jsonl")

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	failedBefore := obs.Default.CounterValue("queries_failed_total", obs.L("role", "s1"))

	drainCh := make(chan struct{})
	s1Ready := make(chan string, 1)
	metricsReady := make(chan string, 1)
	s1Done := make(chan s1ServeResult, 1)
	base := ServerOptions{
		ListenAddr:     "127.0.0.1:0",
		Seed:           611,
		MaxRetries:     3,
		Backoff:        5 * time.Millisecond,
		AttemptTimeout: 30 * time.Second,
		Quorum:         float64(users),
		SubmitDeadline: 30 * time.Second,
	}
	go func() {
		opts := base
		opts.Ready = s1Ready
		opts.MetricsAddr = "127.0.0.1:0"
		opts.MetricsReady = metricsReady
		opts.JournalPath = s1Journal
		rep, err := ServeS1(ctx, s1Files, ServeOptions{
			ServerOptions: opts,
			MaxInFlight:   2,
			DrainCh:       drainCh,
			DrainTimeout:  time.Minute,
		})
		s1Done <- s1ServeResult{rep, err}
	}()
	s1Addr := <-s1Ready
	metricsAddr := <-metricsReady

	s2Ready := make(chan string, 1)
	s2Done := make(chan s2ServeResult, 1)
	go func() {
		opts := base
		opts.Seed = 612
		opts.PeerAddr = s1Addr
		opts.Ready = s2Ready
		opts.JournalPath = s2Journal
		rep, err := ServeS2(ctx, s2Files, ServeOptions{ServerOptions: opts, DrainTimeout: time.Minute})
		s2Done <- s2ServeResult{rep, err}
	}()
	s2Addr := <-s2Ready

	if code, state := healthzState(t, metricsAddr); code != http.StatusOK || state != "admitting" {
		t.Errorf("healthz before drain = (%d, %q), want (200, admitting)", code, state)
	}

	// Admit query A but withhold its uploads: it stays in flight,
	// collecting.
	connA1 := serveUserConnTo(ctx, t, s1Addr)
	defer connA1.Close()
	status, qidA, epochA := admitRaw(ctx, t, connA1, 1, 1001)
	if status != admitOK {
		t.Fatalf("query A admission status %d", status)
	}
	// Replaying the same (tenant, nonce) returns the original grant.
	status2, qidA2, _ := admitRaw(ctx, t, connA1, 1, 1001)
	if status2 != admitOK || qidA2 != qidA {
		t.Fatalf("admission replay = (%d, qid %d), want the original grant (0, qid %d)", status2, qidA2, qidA)
	}

	// Admit query B as well: the window of two is now full.
	connB1 := serveUserConnTo(ctx, t, s1Addr)
	defer connB1.Close()
	connB2 := serveUserConnTo(ctx, t, s2Addr)
	defer connB2.Close()
	status, qidB, epochB := admitRaw(ctx, t, connB1, 2, 2001)
	if status != admitOK || qidB == qidA {
		t.Fatalf("query B admission = (%d, qid %d) with A holding qid %d", status, qidB, qidA)
	}

	// A third admit while A and B are both in flight is refused with the
	// typed overloaded status: no query ID, nothing registered, nothing
	// spent — on the raw wire and through the client.
	if status, qid, _ := admitRaw(ctx, t, connA1, 3, 3001); status != admitOverloaded || qid != 0 {
		t.Fatalf("third admission with the window full = (%d, qid %d), want the overloaded refusal", status, qid)
	}
	clientC, err := NewServeClient(pubs, ServeClientOptions{
		Tenant: 3, S1Addr: s1Addr, S2Addr: s2Addr, Seed: 621,
		MaxRetries: 3, Backoff: 5 * time.Millisecond, AttemptTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	votes := make([][]float64, users)
	for u := range votes {
		votes[u] = oneHot(cfg.Classes, 1)
	}
	if _, err := clientC.Do(ctx, votes); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("client query with the window full: got %v, want ErrOverloaded", err)
	}

	// Query B runs start to finish while A is still collecting: admission
	// is pipelined with A's open collection window.
	uploadQueryRaw(ctx, t, cfg, pubs[epochB], qidB, 1, testRNG(633), mrand.New(mrand.NewSource(634)), connB1, connB2)
	if err := transport.SendControl(ctx, connB1, ctrlResultWait, int64(qidB)); err != nil {
		t.Fatal(err)
	}
	if reply, err := transport.ExpectControl(ctx, connB1, ctrlResultReply); err != nil ||
		len(reply) < 4 || reply[1] != resultConsensus || reply[2] != 1 {
		t.Fatalf("query B while A in flight: reply %v, err %v, want consensus on label 1", reply, err)
	}

	// B has resolved and S1 has forgotten its collector, but the replay
	// window still answers a replayed admit with the original grant and a
	// replayed result wait with the result.
	if status, qid, epoch := admitRaw(ctx, t, connB1, 2, 2001); status != admitOK || qid != qidB || epoch != epochB {
		t.Fatalf("admission replay after B resolved = (%d, qid %d, epoch %d), want the original grant (0, qid %d, epoch %d)",
			status, qid, epoch, qidB, epochB)
	}
	if err := transport.SendControl(ctx, connB1, ctrlResultWait, int64(qidB)); err != nil {
		t.Fatal(err)
	}
	if reply, err := transport.ExpectControl(ctx, connB1, ctrlResultReply); err != nil ||
		len(reply) < 4 || reply[1] != resultConsensus || reply[2] != 1 {
		t.Fatalf("result wait replayed after B resolved: reply %v, err %v, want consensus on label 1", reply, err)
	}

	// B resolved, so the window has room again: the refused tenant is
	// admitted and its query runs to completion beside the still-open A.
	resC, err := clientC.Do(ctx, votes)
	if err != nil {
		t.Fatalf("query C after B resolved: %v", err)
	}
	if !resC.Consensus || resC.Label != 1 || resC.QID == qidA || resC.QID == qidB {
		t.Fatalf("query C outcome %+v, want consensus on label 1 under a fresh query ID", resC)
	}
	// S1 began C after B, so S2 has forgotten B too: a late upload for B
	// is unknown-query on both servers.
	unknownBefore := obs.Default.CounterValue("privconsensus_submissions_rejected_total", obs.L("reason", "unknown-query"))
	uploadQueryRaw(ctx, t, cfg, pubs[epochB], qidB, 2, testRNG(635), mrand.New(mrand.NewSource(636)), connB1, connB2)
	if got := obs.Default.CounterValue("privconsensus_submissions_rejected_total", obs.L("reason", "unknown-query")) - unknownBefore; got != 2*users {
		t.Fatalf("%d uploads for resolved query B counted as unknown-query, want %d (both servers forgot it)", got, 2*users)
	}

	// Drain with A still in flight: admission must refuse with the typed
	// draining status, A must still complete, and the servers must return.
	close(drainCh)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code, state := healthzState(t, metricsAddr); code == http.StatusServiceUnavailable && state == "draining" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := clientC.Do(ctx, votes); !errors.Is(err, ErrDraining) {
		t.Fatalf("admission during drain: got %v, want ErrDraining", err)
	}

	// Deliver A's withheld uploads; the drain must wait for it.
	connA2 := serveUserConnTo(ctx, t, s2Addr)
	defer connA2.Close()
	uploadQueryRaw(ctx, t, cfg, pubs[epochA], qidA, 1, testRNG(631), mrand.New(mrand.NewSource(632)), connA1, connA2)
	if err := transport.SendControl(ctx, connA1, ctrlResultWait, int64(qidA)); err != nil {
		t.Fatal(err)
	}
	reply, err := transport.ExpectControl(ctx, connA1, ctrlResultReply)
	if err != nil {
		t.Fatalf("query A result: %v", err)
	}
	if len(reply) < 4 || reply[1] != resultConsensus || reply[2] != 1 {
		t.Fatalf("query A result reply %v, want consensus on label 1", reply)
	}

	r1 := <-s1Done
	r2 := <-s2Done
	if r1.err != nil {
		t.Fatalf("S1 serve: %v", r1.err)
	}
	if r2.err != nil {
		t.Fatalf("S2 serve: %v", r2.err)
	}
	if len(r1.rep.Results) != 0 || len(r2.rep.Results) != 0 {
		t.Errorf("reports list %d / %d queries; a run with no pre-registered query lists none", len(r1.rep.Results), len(r2.rep.Results))
	}
	if got := obs.Default.CounterValue("queries_failed_total", obs.L("role", "s1")) - failedBefore; got != 0 {
		t.Errorf("%d queries failed under graceful drain", got)
	}
	if got := r1.rep.Admissions["admitted"]; got != 3 {
		t.Errorf("admitted count %d, want 3", got)
	}
	if got := r1.rep.Admissions["overloaded"]; got != 2 {
		t.Errorf("overloaded refusals %d, want 2", got)
	}
	if got := r1.rep.Admissions["draining"]; got < 1 {
		t.Errorf("draining refusals %d, want >= 1", got)
	}
	// The keys draw no noise, so with no quota every query is admitted
	// and non-private: each tenant's ε is +Inf in the report and on
	// /metrics.
	if len(r1.rep.Tenants) != 3 {
		t.Errorf("tenant spends %+v, want tenants 1, 2 and 3", r1.rep.Tenants)
	}
	for _, spend := range r1.rep.Tenants {
		if !math.IsInf(spend.Epsilon, 1) {
			t.Errorf("tenant %d spent ε %v at σ = 0, want +Inf", spend.Tenant, spend.Epsilon)
		}
		if got := obs.TenantEpsilon(strconv.FormatInt(spend.Tenant, 10)).Value(); !math.IsInf(got, 1) {
			t.Errorf("tenant %d: privconsensus_tenant_epsilon %v, want +Inf", spend.Tenant, got)
		}
	}

	// Both journals must verify end to end — a drain that tears the tail
	// beyond the one-record crash tolerance is a flush bug.
	for _, path := range []string{s1Journal, s2Journal} {
		if n, err := obs.VerifyJournalFile(path); err != nil || n == 0 {
			t.Errorf("%s after drain: %d records, err %v", path, n, err)
		}
	}
	evs, err := obs.ReadJournalFile(s1Journal)
	if err != nil {
		t.Fatal(err)
	}
	var admitted, refused, overloaded, drainMark int
	for _, ev := range evs {
		if ev.Type != obs.EventAdmission && !(ev.Type == obs.EventEpoch && ev.Note == "draining") {
			continue
		}
		switch {
		case ev.Type == obs.EventEpoch:
			drainMark++
		case strings.Contains(ev.Note, "decision=admitted"):
			admitted++
		case strings.Contains(ev.Note, "decision=draining"):
			refused++
		case strings.Contains(ev.Note, "decision=overloaded tenant=3") && ev.Instance == -1:
			overloaded++
		}
	}
	if admitted != 3 || refused < 1 || overloaded != 2 || drainMark < 1 {
		t.Errorf("journal admission trail: admitted=%d draining=%d overloaded=%d drain=%d, want 3/>=1/2/>=1",
			admitted, refused, overloaded, drainMark)
	}
}

// lastByteHeld is a net.Conn whose writes, once armed, keep back their last
// byte until release is closed: a frame left in transit.
type lastByteHeld struct {
	net.Conn
	armed   bool
	release chan struct{}
}

func (c *lastByteHeld) Write(p []byte) (int, error) {
	if !c.armed || len(p) == 0 {
		return c.Conn.Write(p)
	}
	n, err := c.Conn.Write(p[:len(p)-1])
	if err != nil {
		return n, err
	}
	<-c.release
	m, err := c.Conn.Write(p[len(p)-1:])
	return n + m, err
}

// parked counts the goroutines blocked in the given state (as a stack dump
// names it) inside the function named fn.
func parked(state, fn string) int {
	buf := make([]byte, 1<<16)
	for runtime.Stack(buf, true) == len(buf) {
		buf = make([]byte, 2*len(buf))
	}
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "["+state) && strings.Contains(g, fn) {
			n++
		}
	}
	return n
}

// TestServeDrainAnswersOpenResultWaits holds result waits open across the
// drain of the last in-flight query. Each of many waits registered before
// the query resolved has its reply sent before S1 returns and closes its
// connections, and so has the uploader's, which asks on its own connection
// only once its upload is acked, perhaps after the query resolved. No
// connection handler outlives ServeS1: a connection with no upload whose
// result wait was still in transit when S1 returned is closed, unanswered.
func TestServeDrainAnswersOpenResultWaits(t *testing.T) {
	if testing.Short() {
		t.Skip("serve deployment test is slow in -short mode")
	}
	const users, waits = 2, 32
	s1Files, s2Files, pubs, cfg := serveTestSetup(t, users, 1, 0, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	drainCh := make(chan struct{})
	s1Ready, s2Ready := make(chan string, 1), make(chan string, 1)
	s1Done, s2Done := make(chan s1ServeResult, 1), make(chan s2ServeResult, 1)
	base := ServerOptions{ListenAddr: "127.0.0.1:0", Seed: 641, AttemptTimeout: 30 * time.Second}
	go func() {
		opts := base
		opts.Ready = s1Ready
		rep, err := ServeS1(ctx, s1Files, ServeOptions{ServerOptions: opts, DrainCh: drainCh, DrainTimeout: time.Minute})
		s1Done <- s1ServeResult{rep, err}
	}()
	s1Addr := <-s1Ready
	go func() {
		opts := base
		opts.Seed, opts.PeerAddr, opts.Ready = 642, s1Addr, s2Ready
		rep, err := ServeS2(ctx, s2Files, ServeOptions{ServerOptions: opts, DrainTimeout: time.Minute})
		s2Done <- s2ServeResult{rep, err}
	}()
	s2Addr := <-s2Ready

	conn1 := serveUserConnTo(ctx, t, s1Addr)
	defer conn1.Close()
	status, qid, epoch := admitRaw(ctx, t, conn1, 1, 1)
	if status != admitOK {
		t.Fatalf("admission status %d", status)
	}
	waiters := make([]transport.Conn, waits, waits+1)
	for i := range waiters {
		waiters[i] = serveUserConnTo(ctx, t, s1Addr)
		defer waiters[i].Close()
		if err := transport.SendControl(ctx, waiters[i], ctrlResultWait, int64(qid)); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := net.Dial("tcp", s1Addr)
	if err != nil {
		t.Fatal(err)
	}
	held := &lastByteHeld{Conn: raw, release: make(chan struct{})}
	late := transport.NewTCPConn(held)
	defer late.Close()
	if err := sendHello(ctx, late, partyUser, 0); err != nil {
		t.Fatal(err)
	}
	// The waits are registered once their handlers park in replyResult, and
	// S1 reads the late connection once its handler parks reading, beside
	// conn1's.
	for parked("select", "(*serveState).replyResult") < waits || parked("IO wait", "(*serverSetup).serveUserConn") < 2 {
		if ctx.Err() != nil {
			t.Fatal("S1's handlers never parked")
		}
		time.Sleep(time.Millisecond)
	}
	held.armed = true
	lateSent := make(chan error, 1)
	go func() { lateSent <- transport.SendControl(ctx, late, ctrlResultWait, int64(qid)) }()

	close(drainCh)
	conn2 := serveUserConnTo(ctx, t, s2Addr)
	defer conn2.Close()
	uploadQueryRaw(ctx, t, cfg, pubs[epoch], qid, 1, testRNG(643), mrand.New(mrand.NewSource(644)), conn1, conn2)
	if err := transport.SendControl(ctx, conn1, ctrlResultWait, int64(qid)); err != nil {
		t.Fatal(err)
	}
	if reply, err := transport.ExpectControl(ctx, conn1, ctrlResultReply); err != nil ||
		len(reply) < 4 || reply[1] != resultConsensus || reply[2] != 1 {
		t.Fatalf("uploader's wait: reply %v, err %v, want consensus on label 1", reply, err)
	}
	if r := <-s1Done; r.err != nil {
		t.Fatalf("S1 serve: %v", r.err)
	}
	if n := parked("", "(*serveState).routes"); n != 0 {
		t.Fatalf("%d of S1's connection handlers outlived ServeS1", n)
	}
	close(held.release)
	<-lateSent // the frame's last byte meets a closed connection, or is lost
	for i, conn := range waiters {
		reply, err := transport.ExpectControl(ctx, conn, ctrlResultReply)
		if err != nil || len(reply) < 4 || reply[1] != resultConsensus || reply[2] != 1 {
			t.Fatalf("wait %d of %d: reply %v, err %v, want consensus on label 1", i, waits, reply, err)
		}
	}
	lateCtx, lateCancel := context.WithTimeout(ctx, 10*time.Second)
	defer lateCancel()
	if reply, err := transport.ExpectControl(lateCtx, late, ctrlResultReply); err == nil || lateCtx.Err() != nil {
		t.Fatalf("late wait: reply %v, err %v, want its connection closed by S1", reply, err)
	}
	if r := <-s2Done; r.err != nil {
		t.Fatalf("S2 serve: %v", r.err)
	}
}

// TestServeDrainTimeoutDuringStalledAnnounce lets the drain time out while
// an admission's announce waits on an S2 that opened the protocol link but
// never the ctl link. The drain timeout resolves the query as failed; the
// admission, whose announce then fails, leaves the query to that
// resolution (closing its done channel a second time would panic) and
// refuses the client as unavailable.
func TestServeDrainTimeoutDuringStalledAnnounce(t *testing.T) {
	s1Files, _, _, _ := serveTestSetup(t, 2, 1, 0, 0)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	drainCh := make(chan struct{})
	ready := make(chan string, 1)
	done := make(chan s1ServeResult, 1)
	go func() {
		opts := ServerOptions{ListenAddr: "127.0.0.1:0", Seed: 651, Ready: ready, AttemptTimeout: time.Second}
		rep, err := ServeS1(ctx, s1Files, ServeOptions{ServerOptions: opts, DrainCh: drainCh, DrainTimeout: 50 * time.Millisecond})
		done <- s1ServeResult{rep, err}
	}()
	addr := <-ready
	peer, err := transport.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	if err := sendHello(ctx, peer, partyPeer, peerCaps(s1Files[0].Config)); err != nil {
		t.Fatal(err)
	}
	user := serveUserConnTo(ctx, t, addr)
	defer user.Close()
	if err := transport.SendControl(ctx, user, ctrlAdmitRequest, 1, 1); err != nil {
		t.Fatal(err)
	}
	for parked("select", "(*ctlLink).roundTrip") < 1 {
		if ctx.Err() != nil {
			t.Fatal("the announce never waited for the ctl link")
		}
		time.Sleep(time.Millisecond)
	}
	close(drainCh)
	reply, err := transport.ExpectControl(ctx, user, ctrlAdmitReply)
	if err != nil || len(reply) < 1 || reply[0] != admitUnavailable {
		t.Fatalf("admit reply %v, err %v, want unavailable", reply, err)
	}
	if r := <-done; r.err != nil {
		t.Fatalf("S1 serve: %v", r.err)
	}
}

// TestServeBudgetRefusal asserts the ε-budget admission path: a tenant
// whose quota affords exactly one query is granted once and refused with
// the typed budget-exhausted status on the second attempt — before any
// protocol bytes are spent — while the durable ledger records exactly the
// committed spend. When every configured quota is exhausted, /healthz
// flips to budget-exhausted.
func TestServeBudgetRefusal(t *testing.T) {
	if testing.Short() {
		t.Skip("serve deployment test is slow in -short mode")
	}
	const (
		users  = 2
		sigma1 = 4.0
		sigma2 = 2.0
		delta  = 1e-6
	)
	s1Files, s2Files, pubs, cfg := serveTestSetup(t, users, 1, sigma1, sigma2)
	cost, err := dp.QuerySpend(sigma1, sigma2, true, true)
	if err != nil {
		t.Fatal(err)
	}
	quota := (epsAfter(t, cost.Coefficient, 1, delta) + epsAfter(t, cost.Coefficient, 2, delta)) / 2
	ledgerPath := filepath.Join(t.TempDir(), "ledger.json")

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	drainCh := make(chan struct{})
	s1Ready := make(chan string, 1)
	metricsReady := make(chan string, 1)
	s1Done := make(chan s1ServeResult, 1)
	base := ServerOptions{
		ListenAddr:     "127.0.0.1:0",
		Seed:           711,
		MaxRetries:     3,
		Backoff:        5 * time.Millisecond,
		AttemptTimeout: 30 * time.Second,
		Quorum:         float64(users),
		SubmitDeadline: 30 * time.Second,
	}
	go func() {
		opts := base
		opts.Ready = s1Ready
		opts.MetricsAddr = "127.0.0.1:0"
		opts.MetricsReady = metricsReady
		rep, err := ServeS1(ctx, s1Files, ServeOptions{
			ServerOptions: opts,
			Tenants:       map[int64]float64{9: quota},
			Delta:         delta,
			LedgerPath:    ledgerPath,
			DrainCh:       drainCh,
			DrainTimeout:  time.Minute,
		})
		s1Done <- s1ServeResult{rep, err}
	}()
	s1Addr := <-s1Ready
	metricsAddr := <-metricsReady

	s2Ready := make(chan string, 1)
	s2Done := make(chan s2ServeResult, 1)
	go func() {
		opts := base
		opts.Seed = 712
		opts.PeerAddr = s1Addr
		opts.Ready = s2Ready
		rep, err := ServeS2(ctx, s2Files, ServeOptions{ServerOptions: opts, DrainTimeout: time.Minute})
		s2Done <- s2ServeResult{rep, err}
	}()
	s2Addr := <-s2Ready

	client, err := NewServeClient(pubs, ServeClientOptions{
		Tenant: 9, S1Addr: s1Addr, S2Addr: s2Addr, Seed: 721,
		MaxRetries: 3, Backoff: 5 * time.Millisecond, AttemptTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	votes := make([][]float64, users)
	for u := range votes {
		votes[u] = oneHot(cfg.Classes, 1)
	}
	if _, err := client.Do(ctx, votes); err != nil {
		t.Fatalf("first query within quota: %v", err)
	}
	if _, err := client.Do(ctx, votes); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("second query: got %v, want ErrBudgetExhausted", err)
	}

	// Every configured quota is now exhausted: readiness flips.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code, state := healthzState(t, metricsAddr); code == http.StatusServiceUnavailable && state == "budget-exhausted" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported budget-exhausted")
		}
		time.Sleep(10 * time.Millisecond)
	}

	close(drainCh)
	r1 := <-s1Done
	<-s2Done
	if r1.err != nil {
		t.Fatalf("S1 serve: %v", r1.err)
	}
	if got := r1.rep.Admissions["budget-exhausted"]; got < 1 {
		t.Errorf("budget-exhausted refusals %d, want >= 1", got)
	}
	if len(r1.rep.Tenants) != 1 || r1.rep.Tenants[0].Tenant != 9 || r1.rep.Tenants[0].Queries != 1 {
		t.Fatalf("tenant spends %+v, want one committed query for tenant 9", r1.rep.Tenants)
	}

	// The durable ledger reloads to exactly the committed spend.
	b, err := dp.OpenLedger(ledgerPath, map[int64]float64{9: quota}, 0, delta)
	if err != nil {
		t.Fatalf("reload ledger: %v", err)
	}
	defer b.Close()
	spends := b.Spends()
	if len(spends) != 1 || spends[0] != r1.rep.Tenants[0] {
		t.Fatalf("reloaded ledger %+v != report %+v", spends, r1.rep.Tenants)
	}
	if err := b.Reserve(9, cost); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("reloaded ledger still admits tenant 9: %v", err)
	}
}

// TestServeRefusesNonPrivateUnderQuota: with σ1 = 0 keys the threshold
// check draws no noise, so every query is non-private (ε = +Inf). Under a
// finite default quota S1 reports the budget exhausted from the start,
// refuses the admission with the typed budget-exhausted status and commits
// nothing.
func TestServeRefusesNonPrivateUnderQuota(t *testing.T) {
	if testing.Short() {
		t.Skip("serve deployment test is slow in -short mode")
	}
	const users = 2
	s1Files, s2Files, pubs, cfg := serveTestSetup(t, users, 1, 0, 2)
	ledgerPath := filepath.Join(t.TempDir(), "ledger.json")
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	drainCh := make(chan struct{})
	s1Ready := make(chan string, 1)
	metricsReady := make(chan string, 1)
	s1Done := make(chan s1ServeResult, 1)
	base := ServerOptions{ListenAddr: "127.0.0.1:0", Seed: 751, MaxRetries: 3, Backoff: 5 * time.Millisecond,
		AttemptTimeout: 30 * time.Second, Quorum: float64(users), SubmitDeadline: 30 * time.Second}
	go func() {
		opts := base
		opts.Ready = s1Ready
		opts.MetricsAddr = "127.0.0.1:0"
		opts.MetricsReady = metricsReady
		rep, err := ServeS1(ctx, s1Files, ServeOptions{ServerOptions: opts, DefaultQuota: 100,
			LedgerPath: ledgerPath, DrainCh: drainCh, DrainTimeout: time.Minute})
		s1Done <- s1ServeResult{rep, err}
	}()
	s1Addr := <-s1Ready
	metricsAddr := <-metricsReady
	s2Ready := make(chan string, 1)
	s2Done := make(chan s2ServeResult, 1)
	go func() {
		opts := base
		opts.Seed = 752
		opts.PeerAddr = s1Addr
		opts.Ready = s2Ready
		rep, err := ServeS2(ctx, s2Files, ServeOptions{ServerOptions: opts, DrainTimeout: time.Minute})
		s2Done <- s2ServeResult{rep, err}
	}()
	s2Addr := <-s2Ready

	if code, state := healthzState(t, metricsAddr); code != http.StatusServiceUnavailable || state != "budget-exhausted" {
		t.Errorf("healthz = (%d, %q), want (503, budget-exhausted)", code, state)
	}
	client, err := NewServeClient(pubs, ServeClientOptions{
		Tenant: 9, S1Addr: s1Addr, S2Addr: s2Addr, Seed: 761,
		MaxRetries: 3, Backoff: 5 * time.Millisecond, AttemptTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	votes := make([][]float64, users)
	for u := range votes {
		votes[u] = oneHot(cfg.Classes, 1)
	}
	if _, err := client.Do(ctx, votes); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("non-private query under a quota: got %v, want ErrBudgetExhausted", err)
	}

	close(drainCh)
	r1 := <-s1Done
	if r2 := <-s2Done; r1.err != nil || r2.err != nil {
		t.Fatalf("S1 serve: %v; S2 serve: %v", r1.err, r2.err)
	}
	if got := r1.rep.Admissions["budget-exhausted"]; got < 1 {
		t.Errorf("budget-exhausted refusals %d, want >= 1", got)
	}
	if len(r1.rep.Tenants) != 0 {
		t.Errorf("tenant spends %+v, want none committed", r1.rep.Tenants)
	}
	if _, err := os.Stat(ledgerPath); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("ledger file after a refused query: %v, want none written", err)
	}
}

// TestServeWaitsForEveryoneByDefault pins the release rule: with Quorum and
// SubmitDeadline unset no submit window is armed, so a query runs over every
// configured user or not at all. Two of three users upload, and the query
// is still collecting well past the attempt timeout. Drained then, it fails
// with ErrDraining at the drain timeout; joined by the third user instead,
// it runs over all three. The query was admitted, so the reply and S1's
// journal are its record.
func TestServeWaitsForEveryoneByDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("serve deployment test is slow in -short mode")
	}
	const users = 3
	for _, thirdUploads := range []bool{false, true} {
		t.Run(fmt.Sprintf("third user uploads=%v", thirdUploads), func(t *testing.T) {
			s1Files, s2Files, pubs, cfg := serveTestSetup(t, users, 1, 0, 0)
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			drainCh := make(chan struct{})
			base := ServerOptions{ListenAddr: "127.0.0.1:0", AttemptTimeout: 500 * time.Millisecond}
			s1Ready, s2Ready := make(chan string, 1), make(chan string, 1)
			s1Done, s2Done := make(chan s1ServeResult, 1), make(chan s2ServeResult, 1)
			journal := filepath.Join(t.TempDir(), "s1.jsonl")
			go func() {
				o := base
				o.Seed, o.Ready, o.JournalPath = 1011, s1Ready, journal
				rep, err := ServeS1(ctx, s1Files, ServeOptions{ServerOptions: o, DrainCh: drainCh})
				s1Done <- s1ServeResult{rep, err}
			}()
			s1Addr := <-s1Ready
			go func() {
				o := base
				o.Seed, o.Ready, o.PeerAddr = 1012, s2Ready, s1Addr
				rep, err := ServeS2(ctx, s2Files, ServeOptions{ServerOptions: o})
				s2Done <- s2ServeResult{rep, err}
			}()
			s2Addr := <-s2Ready

			conn1, conn2 := serveUserConnTo(ctx, t, s1Addr), serveUserConnTo(ctx, t, s2Addr)
			defer conn1.Close()
			defer conn2.Close()
			status, qid, _ := admitRaw(ctx, t, conn1, 1, 5001)
			if status != admitOK {
				t.Fatalf("admission status %d", status)
			}
			// The same seeds rebuild users 0 and 1 byte for byte, so the
			// second upload replays them (tolerated duplicates) and adds
			// user 2 alone.
			upload := func(present int) {
				uploadUsersRaw(ctx, t, cfg, pubs[0], qid, 2, present, testRNG(1020), mrand.New(mrand.NewSource(1021)), conn1, conn2)
			}
			upload(2)
			time.Sleep(4 * base.AttemptTimeout)
			if thirdUploads {
				upload(3)
			} else {
				close(drainCh)
			}
			if err := transport.SendControl(ctx, conn1, ctrlResultWait, int64(qid)); err != nil {
				t.Fatal(err)
			}
			reply, err := transport.ExpectControl(ctx, conn1, ctrlResultReply)
			if err != nil {
				t.Fatalf("result: %v", err)
			}
			if thirdUploads {
				close(drainCh)
			}
			r1, r2 := <-s1Done, <-s2Done
			if r1.err != nil || r2.err != nil {
				t.Fatalf("servers failed: s1=%v s2=%v", r1.err, r2.err)
			}
			evs, err := obs.ReadJournalFile(journal)
			if err != nil {
				t.Fatal(err)
			}
			var quorum []string // the participant decisions S1 journaled for the query
			for _, ev := range evs {
				if ev.Type == obs.EventQuorum && ev.Instance == qid {
					quorum = append(quorum, ev.Note)
				}
			}
			want := fmt.Sprintf("participants=%d dropped=0 quorum=1", users)
			switch {
			case thirdUploads && (reply[1] != resultConsensus || reply[2] != 2 || len(quorum) != 1 || quorum[0] != want):
				t.Errorf("with every user: reply %v, S1 journaled %q; want consensus on 2 over all %d users", reply, quorum, users)
			case !thirdUploads && (reply[1] != resultFailed || len(quorum) != 0):
				t.Errorf("drained with a user missing: reply %v, S1 journaled %q; want the query failed by the drain, never run", reply, quorum)
			}
		})
	}
}

// TestServeHonoursInstances starts both servers with Instances 2 and no
// DrainCh: they must register queries 0 and 1 before accepting, serve them
// to SubmitVotes users, and return on their own once both have resolved,
// each reporting exactly those two queries. The context deadline only
// bounds a run that would otherwise wait for a drain nobody sends.
func TestServeHonoursInstances(t *testing.T) {
	const users = 2
	s1File, s2File, pub, cfg := testSetup(t, users)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s1Ready, s2Ready := make(chan string, 1), make(chan string, 1)
	s1Done, s2Done := make(chan s1ServeResult, 1), make(chan s2ServeResult, 1)
	go func() {
		rep, err := ServeS1(ctx, []*keystore.S1File{s1File}, ServeOptions{ServerOptions: ServerOptions{
			ListenAddr: "127.0.0.1:0", Instances: 2, Seed: 741, Ready: s1Ready,
		}})
		s1Done <- s1ServeResult{rep, err}
	}()
	s1Addr := <-s1Ready
	go func() {
		rep, err := ServeS2(ctx, []*keystore.S2File{s2File}, ServeOptions{ServerOptions: ServerOptions{
			ListenAddr: "127.0.0.1:0", PeerAddr: s1Addr, Instances: 2, Seed: 742, Ready: s2Ready,
		}})
		s2Done <- s2ServeResult{rep, err}
	}()
	s2Addr := <-s2Ready

	labels := []int{1, 3} // query i is unanimous on labels[i]
	for u := 0; u < users; u++ {
		if err := SubmitVotes(ctx, pub, UserOptions{User: u, S1Addr: s1Addr, S2Addr: s2Addr, Seed: int64(750 + u)},
			[][]float64{oneHot(cfg.Classes, labels[0]), oneHot(cfg.Classes, labels[1])}); err != nil {
			t.Fatalf("user %d: %v", u, err)
		}
	}
	r1, r2 := <-s1Done, <-s2Done
	if ctx.Err() != nil {
		t.Fatalf("servers returned only at the deadline (s1 %v, s2 %v): the registered queries never drained the run", r1.err, r2.err)
	}
	if r1.err != nil || r2.err != nil {
		t.Fatalf("servers failed: s1 %v, s2 %v", r1.err, r2.err)
	}
	for role, results := range map[string][]InstanceResult{"s1": r1.rep.Results, "s2": r2.rep.Results} {
		if len(results) != len(labels) {
			t.Fatalf("%s reports %d queries, want %d", role, len(results), len(labels))
		}
		for i, res := range results {
			if res.Instance != i || res.Err != nil || !res.Outcome.Consensus || res.Outcome.Label != labels[i] {
				t.Errorf("%s query %d: %+v, want query %d with consensus on label %d", role, i, res, i, labels[i])
			}
		}
	}
}

// TestServeForgetsResolvedQueries holds a long-running pair's memory flat:
// one client serves 1,000 queries through one pair, and the live heap
// after a collection at query 1,000 is within 1 MB of the one at query
// 200. S1 keeps a query's collector only while it is in flight and S2
// until S1 begins the next query; what stays per resolved query is S1's
// bounded replay window.
func TestServeForgetsResolvedQueries(t *testing.T) {
	if testing.Short() {
		t.Skip("serve deployment test is slow in -short mode")
	}
	const users, total, mark = 2, 1000, 200
	s1Files, s2Files, pubs, cfg := serveTestSetup(t, users, 1, 2, 1.5)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	drainCh := make(chan struct{})
	s1Ready, s2Ready := make(chan string, 1), make(chan string, 1)
	s1Done, s2Done := make(chan s1ServeResult, 1), make(chan s2ServeResult, 1)
	go func() {
		rep, err := ServeS1(ctx, s1Files, ServeOptions{ServerOptions: ServerOptions{
			ListenAddr: "127.0.0.1:0", Seed: 911, Ready: s1Ready,
		}, DrainCh: drainCh})
		s1Done <- s1ServeResult{rep, err}
	}()
	s1Addr := <-s1Ready
	go func() {
		rep, err := ServeS2(ctx, s2Files, ServeOptions{ServerOptions: ServerOptions{
			ListenAddr: "127.0.0.1:0", PeerAddr: s1Addr, Seed: 912, Ready: s2Ready,
		}})
		s2Done <- s2ServeResult{rep, err}
	}()
	s2Addr := <-s2Ready

	client, err := NewServeClient(pubs, ServeClientOptions{Tenant: 1, S1Addr: s1Addr, S2Addr: s2Addr, Seed: 921})
	if err != nil {
		t.Fatal(err)
	}
	votes := [][]float64{oneHot(cfg.Classes, 1), oneHot(cfg.Classes, 1)}
	liveHeap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	var atMark int64
	for q := 1; q <= total; q++ {
		if _, err := client.Do(ctx, votes); err != nil {
			t.Fatalf("query %d: %v", q, err)
		}
		if q == mark {
			atMark = liveHeap()
		}
	}
	grown := liveHeap() - atMark
	close(drainCh)
	if r1, r2 := <-s1Done, <-s2Done; r1.err != nil || r2.err != nil {
		t.Fatalf("servers failed: s1 %v, s2 %v", r1.err, r2.err)
	}
	t.Logf("live heap grew %.2f MB from query %d to query %d", float64(grown)/(1<<20), mark, total)
	if grown > 1<<20 {
		t.Errorf("live heap grew %.2f MB from query %d to query %d, want at most 1 MB: a resolved query is still held",
			float64(grown)/(1<<20), mark, total)
	}
}
