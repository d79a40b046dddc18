package deploy

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/privconsensus/privconsensus/internal/ingest"
	"github.com/privconsensus/privconsensus/internal/obs"
	"github.com/privconsensus/privconsensus/internal/protocol"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// TestAcceptLoopCtxCancellation covers the failure path where the run
// context is cancelled while the accept loop is still collecting parties:
// the server must return promptly with the context error rather than hang.
func TestAcceptLoopCtxCancellation(t *testing.T) {
	s1File, _, _, _ := testSetup(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		_, err := RunS1(ctx, s1File, ServerOptions{
			ListenAddr: "127.0.0.1:0", Instances: 1, Ready: ready,
		})
		done <- err
	}()
	<-ready
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected error after cancellation")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("error does not wrap context.Canceled: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not return after ctx cancellation")
	}
}

// TestUserDropsMidUpload covers a user connection that vanishes after
// uploading only part of its shares: the server keeps serving, then fails
// collection with an error naming how many submissions are missing.
func TestUserDropsMidUpload(t *testing.T) {
	s1File, _, pubFile, cfg := testSetup(t, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	const instances = 2
	go func() {
		_, err := RunS1(ctx, s1File, ServerOptions{
			ListenAddr: "127.0.0.1:0", Instances: instances, Ready: ready,
		})
		done <- err
	}()
	addr := <-ready

	// Peer connects so S1 advances to submission collection.
	peer, err := transport.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	if err := sendHello(ctx, peer, partyPeer, peerCaps(s1File.Config)); err != nil {
		t.Fatal(err)
	}

	// User connects and uploads the half for instance 0 only, then drops.
	units, err := votesToUnits(oneHot(cfg.Classes, 1), cfg.Classes)
	if err != nil {
		t.Fatal(err)
	}
	sub, _, err := protocol.BuildSubmission(testRNG(600), testRNG(601), cfg, 0, units, pubFile.PK1, pubFile.PK2)
	if err != nil {
		t.Fatal(err)
	}
	user, err := transport.Dial(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := sendHello(ctx, user, partyUser, 0); err != nil {
		t.Fatal(err)
	}
	msg, err := ingest.EncodeHalf(0, 0, sub.ToS1)
	if err != nil {
		t.Fatal(err)
	}
	if err := user.Send(ctx, msg); err != nil {
		t.Fatal(err)
	}
	user.Close() // drop mid-upload: instance 1's half never arrives

	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected collection failure after user drop")
		}
		if !strings.Contains(err.Error(), "missing") {
			t.Fatalf("error does not report missing submissions: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not fail after user drop")
	}
}

// TestPeerDropAtZeroBudget severs the peer link mid-protocol (instance 0,
// inside Blind-and-Permute) with MaxRetries 0 on both servers. Nobody will
// redial, so neither server may wait an AttemptTimeout (2 minutes by
// default) for a link that cannot come back: both return at once, every
// instance failed cleanly, the ones after the drop with errPeerGone.
func TestPeerDropAtZeroBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("deployment test is slow in -short mode")
	}
	s1File, s2File, pubFile, _ := testSetup(t, 3)
	start := time.Now()
	run := runTapped(t, s1File, s2File, pubFile, ServerOptions{}, ServerOptions{}, 8)
	if d := time.Since(start); d > 20*time.Second {
		t.Fatalf("servers took %v: they waited for a reconnect nobody will make", d)
	}
	if run.e1 != nil || run.e2 != nil {
		t.Fatalf("structural failure instead of per-instance errors: s1=%v s2=%v", run.e1, run.e2)
	}
	for role, rep := range map[string]*Report{"s1": run.r1, "s2": run.r2} {
		if len(rep.Results) != 2 {
			t.Fatalf("%s reported %d instances, want 2", role, len(rep.Results))
		}
		first, second := rep.Results[0], rep.Results[1]
		if first.Err == nil || (!transport.IsRetryable(first.Err) && !errors.Is(first.Err, errPeerGone)) {
			t.Errorf("%s instance 0: err = %v, want the link failure", role, first.Err)
		}
		if !errors.Is(second.Err, errPeerGone) {
			t.Errorf("%s instance 1: err = %v, want errPeerGone", role, second.Err)
		}
	}
}

// TestMetricsEndpointEndToEnd runs a full deployment with the admin
// endpoint enabled on S1 and scrapes it over real HTTP: /healthz must report
// the drain that follows the batch's last query, /metrics must expose the
// protocol's counter families.
func TestMetricsEndpointEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("deployment test is slow in -short mode")
	}
	const users = 2
	s1File, s2File, pubFile, cfg := testSetup(t, users)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		// Backstop so a wedged deployment cannot hang the test forever.
		time.Sleep(2 * time.Minute)
		cancel()
	}()

	before := obs.Default.CounterValue("deploy_queries_total",
		obs.L("role", "s1"), obs.L("outcome", "consensus"))

	s1Ready := make(chan string, 1)
	s2Ready := make(chan string, 1)
	metricsReady := make(chan string, 1)
	type serverResult struct {
		outcomes []protocol.Outcome
		err      error
	}
	s1Done := make(chan serverResult, 1)
	go func() {
		out, err := RunS1(ctx, s1File, ServerOptions{
			ListenAddr: "127.0.0.1:0", Instances: 1, Seed: 800, Ready: s1Ready,
			MetricsAddr: "127.0.0.1:0", MetricsReady: metricsReady,
			MetricsLinger: time.Minute,
		})
		s1Done <- serverResult{out, err}
	}()
	s1Addr := <-s1Ready
	metricsAddr := <-metricsReady

	s2Done := make(chan serverResult, 1)
	go func() {
		out, err := RunS2(ctx, s2File, ServerOptions{
			ListenAddr: "127.0.0.1:0", PeerAddr: s1Addr, Instances: 1, Seed: 801, Ready: s2Ready,
		})
		s2Done <- serverResult{out, err}
	}()
	s2Addr := <-s2Ready

	for u := 0; u < users; u++ {
		if err := SubmitVotes(ctx, pubFile, UserOptions{
			User: u, S1Addr: s1Addr, S2Addr: s2Addr, Seed: int64(810 + u),
		}, [][]float64{oneHot(cfg.Classes, 3)}); err != nil {
			t.Fatalf("user %d: %v", u, err)
		}
	}

	// Wait for S1's query to complete (counter moves past its pre-test
	// value), then scrape the admin endpoint while it lingers.
	deadline := time.Now().Add(90 * time.Second)
	for obs.Default.CounterValue("deploy_queries_total",
		obs.L("role", "s1"), obs.L("outcome", "consensus")) <= before {
		if time.Now().After(deadline) {
			t.Fatal("query never completed")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// A batch run is the serve core with its one query registered up front:
	// once that query resolves S1 drains, and /healthz says so while the
	// endpoint lingers.
	deadline = time.Now().Add(10 * time.Second)
	for {
		code, state := healthzState(t, metricsAddr)
		if code == http.StatusServiceUnavailable && state == "draining" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz returned %d %q, want 503 draining", code, state)
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", metricsAddr))
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics returned %d", resp.StatusCode)
	}
	for _, family := range []string{
		"paillier_encrypt_total", "paillier_decrypt_total", "paillier_add_total",
		"dgk_comparisons_total", "dgk_encrypt_total",
		"transport_step_bytes_total", "transport_wire_bytes_total",
		"protocol_phase_seconds_bucket", "deploy_queries_total",
		"privconsensus_build_info",
	} {
		if !strings.Contains(string(text), family) {
			t.Errorf("/metrics missing family %q", family)
		}
	}

	// /debug/traces serves the ring of completed query traces as JSON.
	resp, err = http.Get(fmt.Sprintf("http://%s/debug/traces", metricsAddr))
	if err != nil {
		t.Fatalf("debug/traces: %v", err)
	}
	var ring struct {
		Total  uint64            `json:"total"`
		Traces []*obs.QueryTrace `json:"traces"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ring)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode /debug/traces: %v", err)
	}
	if ring.Total == 0 || len(ring.Traces) == 0 {
		t.Fatalf("/debug/traces reports total=%d with %d traces; the completed query must be in the ring", ring.Total, len(ring.Traces))
	}
	last := ring.Traces[len(ring.Traces)-1]
	if len(last.Spans) == 0 {
		t.Errorf("ring trace %q has no phase spans", last.ID)
	}

	// Unblock the lingering admin endpoint and collect both servers.
	r2 := <-s2Done
	if r2.err != nil {
		t.Fatalf("S2: %v", r2.err)
	}
	cancel()
	r1 := <-s1Done
	if r1.err != nil {
		t.Fatalf("S1: %v", r1.err)
	}
	if !r1.outcomes[0].Consensus || r1.outcomes[0].Label != 3 {
		t.Errorf("outcome %+v, want consensus on 3", r1.outcomes[0])
	}
}
