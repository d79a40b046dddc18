package deploy

import (
	"context"
	"errors"
	"fmt"
	mrand "math/rand"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"github.com/privconsensus/privconsensus/internal/keystore"
	"github.com/privconsensus/privconsensus/internal/obs"
	"github.com/privconsensus/privconsensus/internal/protocol"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// parityScenario is one seeded three-user query: users [0, present) vote
// class 2, the rest never show up.
type parityScenario struct {
	name     string
	present  int
	quorum   float64
	deadline time.Duration
}

// queryView is what one server reports about one query, in the terms batch
// and serve share.
type queryView struct {
	Consensus    bool
	Label        int
	QuorumMiss   bool
	Failed       bool // any error other than the quorum miss
	Participants int
	Dropped      int
	// Events is the multiset of journal event types the server recorded
	// against the query — the session's own (quorum decision, phase spans,
	// closing query record, retries), not serve's admission and spend
	// records layered on top.
	Events string
}

func viewOf(t *testing.T, res InstanceResult, journal string, id int) queryView {
	t.Helper()
	v := queryView{
		Consensus: res.Outcome.Consensus, Label: res.Outcome.Label,
		QuorumMiss:   errors.Is(res.Err, protocol.ErrQuorumNotMet),
		Participants: res.Participants, Dropped: res.Dropped,
	}
	v.Failed = res.Err != nil && !v.QuorumMiss
	evs, err := obs.ReadJournalFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, ev := range evs {
		if ev.Instance == id && ev.Type != obs.EventAdmission && ev.Type != obs.EventSpend {
			counts[ev.Type]++
		}
	}
	types := make([]string, 0, len(counts))
	for typ, n := range counts {
		types = append(types, fmt.Sprintf("%s×%d", typ, n))
	}
	sort.Strings(types)
	v.Events = fmt.Sprint(types)
	return v
}

// TestBatchServeParity runs the same seeded scenarios once as a batch
// (ServeS1/ServeS2 with Instances 1 + SubmitVotes) and once admitted on
// demand (Instances 0 + ServeClient, raw uploads where a user must be
// withheld). Both are the same run, so per scenario the two modes
// must report the same label, ⊥ or quorum miss, the same
// Participants/Dropped on both servers, and the same journal event types per
// query on S1 and on S2.
func TestBatchServeParity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-endpoint deployment test is slow in -short mode")
	}
	scenarios := []parityScenario{
		{"full participation", 3, 3, 30 * time.Second},
		{"one user dropped, released by the deadline", 2, 0.5, 2 * time.Second},
		{"turnout below quorum", 1, 3, 2 * time.Second},
	}
	want := map[string]queryView{ // what either mode must report on either server
		scenarios[0].name: {Consensus: true, Label: 2, Participants: 3},
		scenarios[1].name: {Consensus: true, Label: 2, Participants: 2, Dropped: 1},
		scenarios[2].name: {Label: -1, QuorumMiss: true, Participants: 1, Dropped: 2},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			// Fresh key files per run: S2 zeroizes its epochs' private
			// material on the way out.
			s1File, s2File, pub, cfg := testSetup(t, 3)
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			dir := t.TempDir()
			base := ServerOptions{
				ListenAddr: "127.0.0.1:0", Quorum: sc.quorum, SubmitDeadline: sc.deadline, AttemptTimeout: 30 * time.Second,
			}
			b1, b2 := parityBatch(ctx, t, dir, base, sc, cloneFile(t, s1File), cloneFile(t, s2File), pub, cfg)
			v1, v2 := parityServe(ctx, t, dir, base, sc, cloneFile(t, s1File), cloneFile(t, s2File), pub, cfg)
			for _, side := range []struct {
				role         string
				batch, serve queryView
			}{{"S1", b1, v1}, {"S2", b2, v2}} {
				if side.batch != side.serve {
					t.Errorf("%s: batch and serve disagree:\nbatch %+v\nserve %+v", side.role, side.batch, side.serve)
				}
				got := side.batch
				got.Events = ""
				if got != want[sc.name] {
					t.Errorf("%s: batch reports %+v, want %+v", side.role, got, want[sc.name])
				}
				if side.batch.Events == "[]" {
					t.Errorf("%s journaled nothing against the query", side.role)
				}
			}
		})
	}
}

// parityBatch runs one scenario as instance 0 of a batch deployment.
func parityBatch(ctx context.Context, t *testing.T, dir string, base ServerOptions, sc parityScenario,
	s1File *keystore.S1File, s2File *keystore.S2File, pub *keystore.PublicFile, cfg protocol.Config) (queryView, queryView) {
	t.Helper()
	base.Instances = 1
	j1, j2 := filepath.Join(dir, "batch-s1.jsonl"), filepath.Join(dir, "batch-s2.jsonl")
	s1Ready, s2Ready := make(chan string, 1), make(chan string, 1)
	s1Done, s2Done := make(chan s1ServeResult, 1), make(chan s2ServeResult, 1)
	go func() {
		o := base
		o.Seed, o.Ready, o.JournalPath = 411, s1Ready, j1
		rep, err := ServeS1(ctx, []*keystore.S1File{s1File}, ServeOptions{ServerOptions: o})
		s1Done <- s1ServeResult{rep, err}
	}()
	s1Addr := <-s1Ready
	go func() {
		o := base
		o.Seed, o.Ready, o.JournalPath, o.PeerAddr = 412, s2Ready, j2, s1Addr
		rep, err := ServeS2(ctx, []*keystore.S2File{s2File}, ServeOptions{ServerOptions: o})
		s2Done <- s2ServeResult{rep, err}
	}()
	s2Addr := <-s2Ready
	for u := 0; u < sc.present; u++ {
		if err := SubmitVotes(ctx, pub, UserOptions{User: u, S1Addr: s1Addr, S2Addr: s2Addr, Seed: int64(420 + u)},
			[][]float64{oneHot(cfg.Classes, 2)}); err != nil {
			t.Fatalf("batch user %d: %v", u, err)
		}
	}
	d1, d2 := <-s1Done, <-s2Done
	if d1.err != nil || d2.err != nil {
		t.Fatalf("batch servers failed: s1=%v s2=%v", d1.err, d2.err)
	}
	return viewOf(t, d1.rep.Results[0], j1, 0), viewOf(t, d2.rep.Results[0], j2, 0)
}

// parityServe runs one scenario as the first query of a serve deployment:
// through ServeClient when every user votes, over raw client connections
// when some must be withheld.
func parityServe(ctx context.Context, t *testing.T, dir string, base ServerOptions, sc parityScenario,
	s1File *keystore.S1File, s2File *keystore.S2File, pub *keystore.PublicFile, cfg protocol.Config) (queryView, queryView) {
	t.Helper()
	j1, j2 := filepath.Join(dir, "serve-s1.jsonl"), filepath.Join(dir, "serve-s2.jsonl")
	drain := make(chan struct{})
	s1Ready, s2Ready := make(chan string, 1), make(chan string, 1)
	s1Done, s2Done := make(chan s1ServeResult, 1), make(chan s2ServeResult, 1)
	go func() {
		o := base
		o.Seed, o.Ready, o.JournalPath = 411, s1Ready, j1
		rep, err := ServeS1(ctx, []*keystore.S1File{s1File}, ServeOptions{ServerOptions: o, DrainCh: drain, DrainTimeout: time.Minute})
		s1Done <- s1ServeResult{rep, err}
	}()
	s1Addr := <-s1Ready
	go func() {
		o := base
		o.Seed, o.Ready, o.JournalPath, o.PeerAddr = 412, s2Ready, j2, s1Addr
		rep, err := ServeS2(ctx, []*keystore.S2File{s2File}, ServeOptions{ServerOptions: o, DrainTimeout: time.Minute})
		s2Done <- s2ServeResult{rep, err}
	}()
	s2Addr := <-s2Ready

	qid := 0
	if sc.present == cfg.Users {
		c, err := NewServeClient([]*keystore.PublicFile{pub}, ServeClientOptions{Tenant: 1, S1Addr: s1Addr, S2Addr: s2Addr, Seed: 420})
		if err != nil {
			t.Fatal(err)
		}
		votes := make([][]float64, cfg.Users)
		for u := range votes {
			votes[u] = oneHot(cfg.Classes, 2)
		}
		res, err := c.Do(ctx, votes)
		if err != nil {
			t.Fatalf("serve client: %v", err)
		}
		qid = res.QID
	} else {
		conn1, conn2 := serveUserConnTo(ctx, t, s1Addr), serveUserConnTo(ctx, t, s2Addr)
		defer conn1.Close()
		defer conn2.Close()
		status, id, _ := admitRaw(ctx, t, conn1, 1, 4001)
		if status != admitOK {
			t.Fatalf("serve admission status %d", status)
		}
		qid = id
		uploadUsersRaw(ctx, t, cfg, pub, qid, 2, sc.present, testRNG(420), mrand.New(mrand.NewSource(421)), conn1, conn2)
		if err := transport.SendControl(ctx, conn1, ctrlResultWait, int64(qid)); err != nil {
			t.Fatal(err)
		}
		if _, err := transport.ExpectControl(ctx, conn1, ctrlResultReply); err != nil {
			t.Fatalf("serve result: %v", err)
		}
	}
	close(drain)
	d1, d2 := <-s1Done, <-s2Done
	if d1.err != nil || d2.err != nil {
		t.Fatalf("serve servers failed: s1=%v s2=%v", d1.err, d2.err)
	}
	if len(d1.rep.Results) != 1 || len(d2.rep.Results) != 1 {
		t.Fatalf("serve reports hold %d / %d queries, want 1 each", len(d1.rep.Results), len(d2.rep.Results))
	}
	return viewOf(t, d1.rep.Results[0], j1, qid), viewOf(t, d2.rep.Results[0], j2, qid)
}

// TestBackoffDelay pins the retry schedule: no wait before a first attempt,
// doubling from the base, capped at 16× — and the 50ms default base.
func TestBackoffDelay(t *testing.T) {
	for _, c := range []struct {
		base time.Duration
		a    int
		want time.Duration
	}{
		{10 * time.Millisecond, 0, 0},
		{10 * time.Millisecond, 1, 10 * time.Millisecond},
		{10 * time.Millisecond, 3, 40 * time.Millisecond},
		{0, 70, 800 * time.Millisecond},
	} {
		if got := backoffDelay(c.base, c.a); got != c.want {
			t.Errorf("backoffDelay(%v, %d) = %v, want %v", c.base, c.a, got, c.want)
		}
	}
}
