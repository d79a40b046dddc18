package deploy

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"github.com/privconsensus/privconsensus/internal/keystore"
	"github.com/privconsensus/privconsensus/internal/obs"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// TestTraceState checks the publish-once semantics user connections rely on.
func TestTraceState(t *testing.T) {
	ts := newTraceState()
	if !ts.put(5) {
		t.Fatal("first put did not win")
	}
	if ts.put(9) {
		t.Fatal("second put won; the ID must be immutable after adoption")
	}
	id, err := ts.get(context.Background())
	if err != nil || id != 5 {
		t.Fatalf("get = %d, %v; want the first published ID 5", id, err)
	}

	// A reader against an unset state is bounded by its context.
	blocked := newTraceState()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := blocked.get(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("get on unset state with dead ctx = %v, want context.Canceled", err)
	}
}

// TestTraceContextFrame round-trips the ctrl frame over an in-memory pair
// and checks malformed frames are fatal (never retried).
func TestTraceContextFrame(t *testing.T) {
	ctx := context.Background()
	a, b := transport.Pair()
	defer a.Close()
	defer b.Close()

	if err := sendTraceContext(ctx, a, 0x1234); err != nil {
		t.Fatal(err)
	}
	id, err := recvTraceContext(ctx, b)
	if err != nil || id != 0x1234 {
		t.Fatalf("round trip = %d, %v; want 0x1234", id, err)
	}

	bad := []*transport.Message{
		{Kind: transport.KindControl, Flags: []int64{ctrlTraceContext}},       // missing ID
		{Kind: transport.KindControl, Flags: []int64{ctrlUploadDone, 7}},      // wrong code
		{Kind: transport.KindControl, Flags: []int64{ctrlTraceContext, -1}},   // negative ID
		{Kind: transport.KindControl, Flags: []int64{ctrlTraceContext, 1, 2}}, // trailing junk
	}
	for i, msg := range bad {
		if err := a.Send(ctx, msg); err != nil {
			t.Fatal(err)
		}
		_, err := recvTraceContext(ctx, b)
		if err == nil {
			t.Fatalf("malformed frame %d accepted", i)
		}
		var fatal *transport.FatalError
		if !errors.As(err, &fatal) {
			t.Errorf("malformed frame %d error %v is not fatal; a reconnect would replay it forever", i, err)
		}
	}
}

// TestTracedDeploymentEndToEnd runs a full two-server deployment with
// journaling enabled everywhere and checks the observability acceptance
// criteria on the files left behind: every journal verifies, all five
// processes share one trace ID, and the per-query span bytes written to
// disk sum exactly to the query totals (the transport-meter invariant,
// extended to the journal).
func TestTracedDeploymentEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("deployment test is slow in -short mode")
	}
	const (
		users     = 3
		instances = 2
	)
	s1File, s2File, pubFile, cfg := testSetup(t, users)
	dir := t.TempDir()
	s1Journal := filepath.Join(dir, "s1.jsonl")
	s2Journal := filepath.Join(dir, "s2.jsonl")

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	s1Ready := make(chan string, 1)
	s1Done := make(chan error, 1)
	go func() {
		rep, err := ServeS1(ctx, []*keystore.S1File{s1File}, ServeOptions{ServerOptions: ServerOptions{
			ListenAddr: "127.0.0.1:0", Instances: instances, Seed: 201,
			Ready: s1Ready, JournalPath: s1Journal,
		}})
		if err == nil {
			_, err = outcomes(rep.Results)
		}
		s1Done <- err
	}()
	s1Addr := <-s1Ready

	s2Ready := make(chan string, 1)
	s2Done := make(chan error, 1)
	go func() {
		rep, err := ServeS2(ctx, []*keystore.S2File{s2File}, ServeOptions{ServerOptions: ServerOptions{
			ListenAddr: "127.0.0.1:0", PeerAddr: s1Addr, Instances: instances,
			Seed: 202, Ready: s2Ready, JournalPath: s2Journal,
		}})
		if err == nil {
			_, err = outcomes(rep.Results)
		}
		s2Done <- err
	}()
	s2Addr := <-s2Ready

	// Unanimous class 2 on instance 0, split on instance 1.
	userJournals := make([]string, users)
	for u := 0; u < users; u++ {
		votes := [][]float64{oneHot(cfg.Classes, 2), oneHot(cfg.Classes, u%2)}
		userJournals[u] = filepath.Join(dir, "user"+string(rune('0'+u))+".jsonl")
		if err := SubmitVotes(ctx, pubFile, UserOptions{
			User: u, S1Addr: s1Addr, S2Addr: s2Addr, Seed: int64(300 + u),
			JournalPath: userJournals[u],
		}, votes); err != nil {
			t.Fatalf("user %d: %v", u, err)
		}
	}
	if err := <-s1Done; err != nil {
		t.Fatalf("S1: %v", err)
	}
	if err := <-s2Done; err != nil {
		t.Fatalf("S2: %v", err)
	}

	paths := append([]string{s1Journal, s2Journal}, userJournals...)
	traces := map[string]bool{}
	for _, path := range paths {
		if n, err := obs.VerifyJournalFile(path); err != nil || n == 0 {
			t.Fatalf("%s: verified %d records, err %v; every journal must chain-verify", path, n, err)
		}
		evs, err := obs.ReadJournalFile(path)
		if err != nil {
			t.Fatal(err)
		}
		anchors := 0
		for _, ev := range evs {
			if ev.Trace == "" {
				t.Fatalf("%s: event %+v missing the trace stamp", path, ev)
			}
			traces[ev.Trace] = true
			if ev.Type == obs.EventTraceBegin {
				anchors++
			}
		}
		if anchors != 1 {
			t.Errorf("%s: %d trace-begin anchors, want exactly 1 for timeline alignment", path, anchors)
		}
	}
	if len(traces) != 1 {
		t.Fatalf("journals carry %d distinct trace IDs %v, want the single S1-minted ID everywhere", len(traces), traces)
	}

	// Server journals: every instance closes with a query record whose byte
	// totals equal the sum of its journaled spans — the PR-2 meter
	// invariant must survive the trip to disk.
	for _, path := range []string{s1Journal, s2Journal} {
		evs, _ := obs.ReadJournalFile(path)
		type tally struct{ tx, rx, qTx, qRx int64 }
		perInstance := map[int]*tally{}
		quorums := 0
		for _, ev := range evs {
			switch ev.Type {
			case obs.EventSpan:
				tl := perInstance[ev.Instance]
				if tl == nil {
					tl = &tally{}
					perInstance[ev.Instance] = tl
				}
				tl.tx += ev.BytesSent
				tl.rx += ev.BytesReceived
			case obs.EventQuery:
				tl := perInstance[ev.Instance]
				if tl == nil {
					tl = &tally{}
					perInstance[ev.Instance] = tl
				}
				tl.qTx, tl.qRx = ev.BytesSent, ev.BytesReceived
			case obs.EventQuorum:
				quorums++
			}
		}
		if len(perInstance) != instances {
			t.Fatalf("%s journaled %d instances, want %d", path, len(perInstance), instances)
		}
		for i, tl := range perInstance {
			if tl.qTx == 0 && tl.qRx == 0 {
				t.Errorf("%s instance %d: query record reports zero traffic", path, i)
			}
			if tl.tx != tl.qTx || tl.rx != tl.qRx {
				t.Errorf("%s instance %d: span bytes tx=%d rx=%d differ from query totals %d/%d",
					path, i, tl.tx, tl.rx, tl.qTx, tl.qRx)
			}
		}
		if quorums != instances {
			t.Errorf("%s journaled %d quorum decisions, want one per instance", path, quorums)
		}
	}

	// User journals record the upload itself.
	for u, path := range userJournals {
		evs, _ := obs.ReadJournalFile(path)
		uploads := 0
		for _, ev := range evs {
			if ev.Type == obs.EventSpan && ev.MsgsSent > 0 {
				uploads++
			}
		}
		if uploads == 0 {
			t.Errorf("user %d journal has no upload span", u)
		}
	}
}
