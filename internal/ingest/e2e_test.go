// End-to-end ingestion-tree tests. The package is ingest_test so it can
// drive the deploy servers (deploy imports ingest, never the reverse).
package ingest_test

import (
	"context"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"github.com/privconsensus/privconsensus/internal/deploy"
	"github.com/privconsensus/privconsensus/internal/dgk"
	"github.com/privconsensus/privconsensus/internal/ingest"
	"github.com/privconsensus/privconsensus/internal/keystore"
	"github.com/privconsensus/privconsensus/internal/protocol"
)

// testSetup generates key files for a small deployment (mirrors the deploy
// package's test fixture).
func testSetup(t *testing.T, users int) (*keystore.S1File, *keystore.S2File, *keystore.PublicFile, protocol.Config) {
	return testSetupFrac(t, users, 0.5)
}

// testSetupFrac is testSetup with a chosen threshold fraction (awkward
// fractions make the partial-participation δ correction nonzero).
func testSetupFrac(t *testing.T, users int, frac float64) (*keystore.S1File, *keystore.S2File, *keystore.PublicFile, protocol.Config) {
	return testSetupWith(t, users, func(cfg *protocol.Config) {
		cfg.ThresholdFrac = frac
		// CHAOS_PACKED=1 (the `make chaos-packed` lane) flips the
		// deployment to slot-packed submissions; see the deploy package's
		// testSetup.
		cfg.Packing = os.Getenv("CHAOS_PACKED") == "1"
	})
}

// testSetupWith generates the key files of the small test deployment after
// edit has adjusted its configuration.
func testSetupWith(t *testing.T, users int, edit func(*protocol.Config)) (*keystore.S1File, *keystore.S2File, *keystore.PublicFile, protocol.Config) {
	t.Helper()
	cfg := protocol.DefaultConfig(users)
	cfg.Classes = 4
	cfg.Kappa = 24
	cfg.Sigma1, cfg.Sigma2 = 0, 0
	cfg.ThresholdFrac = 0.5
	cfg.DGK = dgk.Params{NBits: 160, TBits: 32, U: 1009, L: 50}
	edit(&cfg)
	keys, err := protocol.GenerateKeys(rand.New(rand.NewSource(200)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2, pub, err := keystore.Split(cfg, keys)
	if err != nil {
		t.Fatal(err)
	}
	return s1, s2, pub, cfg
}

// oneHot builds a one-hot float vote vector.
func oneHot(classes, label int) []float64 {
	v := make([]float64, classes)
	v[label] = 1
	return v
}

// startRelay launches one relay and returns its bound listen addresses.
func startRelay(ctx context.Context, t *testing.T, opts ingest.Options) (s1Addr, s2Addr string, done <-chan error) {
	t.Helper()
	r1 := make(chan string, 1)
	r2 := make(chan string, 1)
	opts.ListenS1 = "127.0.0.1:0"
	opts.ListenS2 = "127.0.0.1:0"
	opts.ReadyS1 = r1
	opts.ReadyS2 = r2
	errCh := make(chan error, 1)
	go func() { errCh <- ingest.Run(ctx, opts) }()
	select {
	case s1Addr = <-r1:
	case err := <-errCh:
		t.Fatalf("relay did not start: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("relay start timed out")
	}
	s2Addr = <-r2
	return s1Addr, s2Addr, errCh
}

// TestTreeIngestionEndToEnd proves the relay tree is invisible downstream
// of the collector: for each packing mode and tree shape the real batch
// servers run twice on identical seeded per-user submissions at full
// participation — once with every user uploading directly, once through the
// tree — and each server's results must be equal between the two runs and be
// the expected ones. Users alternate between two leaves (the sibling listed
// as failover, never used: no uploader may re-home); in the mid-relay rows
// the leaves forward to one combiner relay, so every user reaches the
// servers inside a combined frame merged from other combined frames.
//
// The votes sit on both decision boundaries so a relay that loses or
// repeats a member shows in the outcome: instance 0's winner holds exactly
// the threshold (T = 6 of 12) one vote ahead of the runner-up, instance 1's
// leader is one vote short of it.
func TestTreeIngestionEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-endpoint ingestion test is slow in -short mode")
	}
	const users = 12
	// votes[instance][user]: instance 0 tallies 1:6, 2:5, 0:1 — consensus
	// on 1; instance 1 tallies 1:5, 2:4, 3:3 — none.
	votes := [2][users]int{
		{1, 1, 1, 1, 2, 2, 1, 1, 2, 2, 2, 0},
		{1, 1, 2, 2, 3, 3, 1, 1, 2, 2, 1, 3},
	}
	want := []protocol.Outcome{
		{Consensus: true, Label: 1, Participants: users},
		{Consensus: false, Label: -1, Participants: users},
	}
	for _, row := range []struct {
		name        string
		packed, mid bool
	}{
		{"unpacked/leaves-servers", false, false},
		{"unpacked/leaves-mid-servers", false, true},
		{"packed/leaves-servers", true, false},
		{"packed/leaves-mid-servers", true, true},
	} {
		row := row
		t.Run(row.name, func(t *testing.T) {
			// 256-bit keys: a packed plaintext then holds several slots, so
			// the packed rows pre-sum real multi-slot ciphertexts.
			s1File, s2File, pub, cfg := testSetupWith(t, users, func(cfg *protocol.Config) {
				cfg.PaillierBits = 256
				cfg.Packing = row.packed
			})
			if row.packed && cfg.PackedSlotsPerPlaintext() < 2 {
				t.Fatalf("packed row has %d slots per plaintext, want several", cfg.PackedSlotsPerPlaintext())
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()

			run := func(tree bool) [2]*deploy.Report {
				s1Addr, s2Addr, s1Done, s2Done := chaosServers(ctx, t, s1File, s2File,
					deploy.ServerOptions{Instances: len(votes)}, "", "")
				// endpoints[side][user%2]: where an even / odd user uploads.
				endpoints := [2][2][]string{{{s1Addr}, {s1Addr}}, {{s2Addr}, {s2Addr}}}
				if tree {
					relCtx, stopRelays := context.WithCancel(ctx)
					var relays []<-chan error
					defer func() {
						stopRelays()
						for _, done := range relays {
							<-done
						}
					}()
					// Batches seal by size (6 users per leaf in batches of 3;
					// the mid relay merges two of those per batch of its own)
					// or on the flush tick, whichever comes first. Which users
					// share a batch cannot change an outcome: pre-summing is
					// grouping-invariant.
					relay := func(id int64, up1, up2 string, batch int) (string, string) {
						a1, a2, done := startRelay(relCtx, t, ingest.Options{
							UpstreamS1: up1, UpstreamS2: up2, RelayID: id,
							Users: users, Instances: len(votes), Classes: cfg.Classes,
							PK1: pub.PK1, PK2: pub.PK2, Packed: ingest.ConfigRules(cfg).Packed,
							BatchSize: batch, Seed: id,
						})
						relays = append(relays, done)
						return a1, a2
					}
					up1, up2 := s1Addr, s2Addr
					if row.mid {
						up1, up2 = relay(3, s1Addr, s2Addr, 6)
					}
					a1, a2 := relay(1, up1, up2, 3)
					b1, b2 := relay(2, up1, up2, 3)
					endpoints = [2][2][]string{{{a1, b1}, {b1, a1}}, {{a2, b2}, {b2, a2}}}
				}
				for u := 0; u < users-1; u++ {
					f1, f2 := chaosUserFrames(t, cfg, pub, u, votes[0][u], votes[1][u])
					if n := uploadVia(ctx, t, f1, f2, u, endpoints[0][u%2], endpoints[1][u%2]); n != 0 {
						t.Errorf("user %d re-homed %d times in a failure-free run", u, n)
					}
				}
				// The last user goes through the standard client, which
				// speaks to its leaf exactly as it would to a server.
				last := users - 1
				err := deploy.SubmitVotes(ctx, pub, deploy.UserOptions{
					User: last, S1Addr: endpoints[0][last%2][0], S2Addr: endpoints[1][last%2][0],
					Seed: int64(300 + last), MaxRetries: 2,
				}, [][]float64{oneHot(cfg.Classes, votes[0][last]), oneHot(cfg.Classes, votes[1][last])})
				if err != nil {
					t.Fatalf("user %d: %v", last, err)
				}
				r1, r2 := <-s1Done, <-s2Done
				if r1.err != nil || r2.err != nil {
					t.Fatalf("tree=%v: s1 err %v, s2 err %v", tree, r1.err, r2.err)
				}
				return [2]*deploy.Report{r1.rep, r2.rep}
			}

			direct, viaTree := run(false), run(true)
			for i, name := range []string{"s1", "s2"} {
				if !reflect.DeepEqual(direct[i].Results, viaTree[i].Results) {
					t.Errorf("%s: tree results %+v diverge from direct %+v", name, viaTree[i].Results, direct[i].Results)
				}
				for q, res := range viaTree[i].Results {
					if res.Err != nil || res.Outcome != want[q] || res.Participants != users {
						t.Errorf("%s instance %d: %+v, want %+v from all %d users", name, q, res, want[q], users)
					}
				}
			}
		})
	}
}
