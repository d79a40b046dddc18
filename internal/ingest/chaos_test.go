package ingest_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/privconsensus/privconsensus/internal/deploy"
	"github.com/privconsensus/privconsensus/internal/ingest"
	"github.com/privconsensus/privconsensus/internal/keystore"
	"github.com/privconsensus/privconsensus/internal/obs"
	"github.com/privconsensus/privconsensus/internal/protocol"
	"github.com/privconsensus/privconsensus/internal/transport"
)

// relayChaosFaultSpec injects bounded delays into the surviving relay's
// accepted connections, so the re-homed uploads cross the fault injector
// without making the run nondeterministic (delays reorder nothing).
const relayChaosFaultSpec = "seed=9,delay=0.2,delay-ms=2,max=10"

// chaosUserFrames builds one user's submission frames, one per side for
// each instance's voted label, with deterministic randomness, so the direct
// and tree runs carry byte-identical submissions.
func chaosUserFrames(t *testing.T, cfg protocol.Config, pub *keystore.PublicFile, u int, labels ...int) (toS1, toS2 []*transport.Message) {
	t.Helper()
	for instance, label := range labels {
		units := make([]*big.Int, cfg.Classes)
		for i := range units {
			units[i] = big.NewInt(0)
		}
		units[label] = big.NewInt(protocol.VoteScale)
		sub, _, err := protocol.BuildSubmission(rand.New(rand.NewSource(int64(900+u+1000*instance))),
			rand.New(rand.NewSource(int64(950+u+1000*instance))), cfg, u, units, pub.PK1, pub.PK2)
		if err != nil {
			t.Fatal(err)
		}
		encode := func(h protocol.SubmissionHalf) *transport.Message {
			var f *transport.Message
			if cfg.Packing {
				f, err = ingest.EncodePackedHalf(u, instance, cfg.Classes, cfg.PackedWidth(), h)
			} else {
				f, err = ingest.EncodeHalf(u, instance, h)
			}
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		toS1 = append(toS1, encode(sub.ToS1))
		toS2 = append(toS2, encode(sub.ToS2))
	}
	return toS1, toS2
}

// chaosServers starts the full S1/S2 protocol servers — policy carries the
// instance count and the quorum / submit-deadline policy (both zero: wait
// for everyone) — and returns their addresses and report channels. Each
// call runs on its own copy of the key files: S2 zeroizes its private keys
// in place on exit, and the tests run two deployments on one key set.
func chaosServers(ctx context.Context, t *testing.T, s1File *keystore.S1File, s2File *keystore.S2File,
	policy deploy.ServerOptions, j1, j2 string) (s1Addr, s2Addr string, s1Done, s2Done chan chaosReport) {
	t.Helper()
	s1File, s2File = cloneFile(t, s1File), cloneFile(t, s2File)
	s1Ready := make(chan string, 1)
	s2Ready := make(chan string, 1)
	s1Done = make(chan chaosReport, 1)
	s2Done = make(chan chaosReport, 1)
	base := policy
	base.ListenAddr = "127.0.0.1:0"
	base.MaxRetries = 3
	base.Backoff = 5 * time.Millisecond
	base.AttemptTimeout = 30 * time.Second
	go func() {
		opts := base
		opts.Seed = 601
		opts.Ready = s1Ready
		opts.JournalPath = j1
		rep, err := deploy.ServeS1(ctx, []*keystore.S1File{s1File}, deploy.ServeOptions{ServerOptions: opts})
		if err != nil {
			s1Done <- chaosReport{nil, err}
			return
		}
		s1Done <- chaosReport{&deploy.Report{Results: rep.Results}, nil}
	}()
	s1Addr = <-s1Ready
	go func() {
		opts := base
		opts.Seed = 602
		opts.Ready = s2Ready
		opts.PeerAddr = s1Addr
		opts.JournalPath = j2
		rep, err := deploy.ServeS2(ctx, []*keystore.S2File{s2File}, deploy.ServeOptions{ServerOptions: opts})
		s2Done <- chaosReport{rep, err}
	}()
	s2Addr = <-s2Ready
	return s1Addr, s2Addr, s1Done, s2Done
}

// cloneFile deep-copies a key file with a JSON round trip.
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

type chaosReport struct {
	rep *deploy.Report
	err error
}

// uploadVia delivers one user's frames (one per instance and side) through
// the given endpoint lists (primary first), returning the uploader re-home
// counts.
func uploadVia(ctx context.Context, t *testing.T, f1, f2 []*transport.Message, user int, eps1, eps2 []string) int {
	t.Helper()
	rehomes := 0
	for i, d := range []struct {
		frames []*transport.Message
		eps    []string
	}{{f1, eps1}, {f2, eps2}} {
		up := &ingest.Uploader{Endpoints: d.eps, MaxRetries: 1, Backoff: 5 * time.Millisecond,
			AttemptTimeout: 5 * time.Second}
		if err := up.Send(ctx, d.frames...); err != nil {
			t.Fatalf("user %d side %d send: %v", user, i, err)
		}
		if err := up.Confirm(ctx, int64(user)); err != nil {
			t.Fatalf("user %d side %d confirm: %v", user, i, err)
		}
		up.Close()
		rehomes += up.Rehomes
	}
	return rehomes
}

// acceptedBatches reads the server-side accepted relay-batch counter (the
// registry is global and cumulative, so callers diff against a snapshot).
func acceptedBatches() int64 {
	return obs.Default.CounterValue("privconsensus_relay_batches_total", obs.L("outcome", "accepted"))
}

// TestChaosRelayRehoming kills one of two relays mid-window and asserts the
// ingestion tree degrades, not fails: the surviving relay absorbs the
// re-homed leaves, both servers reach quorum with the same participant set
// as a direct no-failure run, and the consensus outcome and δ correction
// are identical — byte-determinism of the pre-sum under failure.
func TestChaosRelayRehoming(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos relay test is slow in -short mode")
	}
	const (
		users   = 6
		present = 5 // user 5 never submits, so δ != 0
		label   = 1
	)
	// ThresholdFrac 0.6 over 6 users makes the per-user T/2 offsets divide
	// unevenly, so the 5-participant δ correction is nonzero and journaled.
	s1File, s2File, pub, cfg := testSetupFrac(t, users, 0.6)
	journalDir := os.Getenv("CHAOS_JOURNAL_DIR")
	if journalDir == "" {
		journalDir = t.TempDir()
	} else if err := os.MkdirAll(journalDir, 0o755); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	runTree := func(mode string) (*deploy.Report, *deploy.Report) {
		j1 := filepath.Join(journalDir, fmt.Sprintf("ingest-%s-s1.jsonl", mode))
		j2 := filepath.Join(journalDir, fmt.Sprintf("ingest-%s-s2.jsonl", mode))
		s1Addr, s2Addr, s1Done, s2Done := chaosServers(ctx, t, s1File, s2File,
			deploy.ServerOptions{Instances: 1, Quorum: present, SubmitDeadline: 6 * time.Second}, j1, j2)

		if mode == "direct" {
			for u := 0; u < present; u++ {
				f1, f2 := chaosUserFrames(t, cfg, pub, u, label)
				uploadVia(ctx, t, f1, f2, u, []string{s1Addr}, []string{s2Addr})
			}
		} else {
			relayOpts := func(id int64, fault string) ingest.Options {
				return ingest.Options{
					UpstreamS1: s1Addr, UpstreamS2: s2Addr, RelayID: id,
					Users: users, Instances: 1, Classes: cfg.Classes,
					PK1: pub.PK1, PK2: pub.PK2, Packed: ingest.ConfigRules(cfg).Packed,
					BatchSize: 1, MaxRetries: 2, Backoff: 5 * time.Millisecond,
					Seed: id, FaultSpec: fault,
					JournalPath: filepath.Join(journalDir, fmt.Sprintf("ingest-relay%d.jsonl", id)),
				}
			}
			aCtx, killA := context.WithCancel(ctx)
			defer killA()
			a1, a2, aErr := startRelay(aCtx, t, relayOpts(1, ""))
			b1, b2, _ := startRelay(ctx, t, relayOpts(2, relayChaosFaultSpec))

			// Phase 1: three leaves homed on relay A; wait until their
			// batches are acked upstream, so killing A loses nothing.
			base := acceptedBatches()
			for u := 0; u < 3; u++ {
				f1, f2 := chaosUserFrames(t, cfg, pub, u, label)
				uploadVia(ctx, t, f1, f2, u, []string{a1, b1}, []string{a2, b2})
			}
			deadlineAt := time.Now().Add(5 * time.Second)
			for acceptedBatches() < base+6 {
				if time.Now().After(deadlineAt) {
					t.Fatalf("relay A forwarded %d of 6 batches before the kill window", acceptedBatches()-base)
				}
				time.Sleep(5 * time.Millisecond)
			}
			// Relay A dies mid-window.
			killA()
			<-aErr

			// Phase 2: the remaining leaves still list A first and must
			// re-home to the sibling B.
			rehomed := 0
			for u := 3; u < present; u++ {
				f1, f2 := chaosUserFrames(t, cfg, pub, u, label)
				rehomed += uploadVia(ctx, t, f1, f2, u, []string{a1, b1}, []string{a2, b2})
			}
			if rehomed == 0 {
				t.Error("no uploader re-homed after the relay death")
			}
		}

		r1 := <-s1Done
		r2 := <-s2Done
		if r1.err != nil || r2.err != nil {
			t.Fatalf("%s run: s1 err %v, s2 err %v", mode, r1.err, r2.err)
		}
		for _, j := range []string{j1, j2} {
			if n, err := obs.VerifyJournalFile(j); err != nil || n == 0 {
				t.Errorf("%s: %d records, err %v; the chain must verify", j, n, err)
			}
		}
		return r1.rep, r2.rep
	}

	direct1, direct2 := runTree("direct")
	tree1, tree2 := runTree("tree")

	// The tree (with a mid-window relay death) must be invisible in the
	// outcome: same consensus, same label, same participant count on both
	// servers as the no-relay baseline.
	for _, cmp := range []struct {
		name         string
		base, result *deploy.Report
	}{{"s1", direct1, tree1}, {"s2", direct2, tree2}} {
		b := cmp.base.Results[0]
		r := cmp.result.Results[0]
		if b.Err != nil || r.Err != nil {
			t.Fatalf("%s: instance errors: direct %v, tree %v", cmp.name, b.Err, r.Err)
		}
		if b.Outcome != r.Outcome {
			t.Errorf("%s: tree outcome %+v diverges from direct %+v", cmp.name, r.Outcome, b.Outcome)
		}
		if r.Outcome.Participants != present || !r.Outcome.Consensus || r.Outcome.Label != label {
			t.Errorf("%s: tree outcome %+v, want consensus on label %d with %d participants",
				cmp.name, r.Outcome, label, present)
		}
	}

	// The δ correction applied under partial participation must match
	// between the runs — the relay pre-sums preserved the participant set.
	directDelta := deltaNotes(t, filepath.Join(journalDir, "ingest-direct-s1.jsonl"))
	treeDelta := deltaNotes(t, filepath.Join(journalDir, "ingest-tree-s1.jsonl"))
	if len(directDelta) == 0 {
		t.Fatal("no δ-correction events journaled in the direct run")
	}
	if fmt.Sprint(directDelta) != fmt.Sprint(treeDelta) {
		t.Errorf("δ corrections diverge: direct %v, tree %v", directDelta, treeDelta)
	}

	// The surviving relay's journal must verify and carry forwarded-batch
	// events; the server journals must record the relay-batch ingestions.
	relayJournal := filepath.Join(journalDir, "ingest-relay2.jsonl")
	if n, err := obs.VerifyJournalFile(relayJournal); err != nil || n == 0 {
		t.Fatalf("relay journal: %d records, err %v", n, err)
	}
	if n := countEvents(t, relayJournal, obs.EventRelayBatch); n == 0 {
		t.Error("surviving relay journaled no forwarded batches")
	}
	if n := countEvents(t, filepath.Join(journalDir, "ingest-tree-s1.jsonl"), obs.EventRelayBatch); n == 0 {
		t.Error("S1 journaled no relay-batch ingestions in the tree run")
	}
}

// deltaNotes returns the δ-correction notes of a journal in order.
func deltaNotes(t *testing.T, path string) []string {
	t.Helper()
	evs, err := obs.ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var notes []string
	for _, ev := range evs {
		if ev.Type == obs.EventDelta {
			notes = append(notes, ev.Note)
		}
	}
	return notes
}

// countEvents counts a journal's events of one type.
func countEvents(t *testing.T, path string, typ string) int {
	t.Helper()
	evs, err := obs.ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ev := range evs {
		if ev.Type == typ {
			n++
		}
	}
	return n
}
