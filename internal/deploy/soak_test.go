package deploy

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/privconsensus/privconsensus/internal/dp"
	"github.com/privconsensus/privconsensus/internal/obs"
	"github.com/privconsensus/privconsensus/internal/protocol"
)

// soakQueries returns the soak length: a bounded CI-sized run by default,
// 200 queries under SOAK=1 (the `make soak` lane), and the full
// 1000-query chaos soak under SOAK_FULL=1.
func soakQueries() int {
	switch {
	case os.Getenv("SOAK_FULL") == "1":
		return 1000
	case os.Getenv("SOAK") == "1":
		return 200
	default:
		return 24
	}
}

// TestSoakServe runs the continuous-operation chaos soak: concurrent
// tenants stream queries through a serve-mode pair under the seeded
// fault layer, with one epoch rotation mid-soak. It asserts zero unclean
// failures (every outcome is a consensus result or a typed quorum miss),
// that queries completed under both epochs, that the retired epoch's key
// material was zeroized, that the durable ledger equals an accountant
// replayed from the journaled per-query spends, and that both journals
// chain-verify.
func TestSoakServe(t *testing.T) {
	if testing.Short() {
		t.Skip("soak is slow in -short mode")
	}
	const (
		users   = 2
		workers = 3
		sigma1  = 2.0
		sigma2  = 1.5
		delta   = 1e-6
	)
	total := soakQueries()
	s1Files, s2Files, pubs, cfg := serveTestSetup(t, users, 2, sigma1, sigma2)

	journalDir := os.Getenv("SOAK_JOURNAL_DIR")
	if journalDir == "" {
		journalDir = t.TempDir()
	} else if err := os.MkdirAll(journalDir, 0o755); err != nil {
		t.Fatal(err)
	}
	s1Journal := filepath.Join(journalDir, "soak_s1.jsonl")
	s2Journal := filepath.Join(journalDir, "soak_s2.jsonl")
	for _, p := range []string{s1Journal, s2Journal} {
		if err := os.RemoveAll(p); err != nil {
			t.Fatal(err)
		}
	}
	ledgerPath := filepath.Join(t.TempDir(), "soak_ledger.json")

	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Minute)
	defer cancel()

	drainCh := make(chan struct{})
	s1Ready := make(chan string, 1)
	s1Done := make(chan s1ServeResult, 1)
	base := ServerOptions{
		ListenAddr:     "127.0.0.1:0",
		Seed:           811,
		MaxRetries:     5,
		Backoff:        5 * time.Millisecond,
		AttemptTimeout: 30 * time.Second,
		Quorum:         float64(users),
		SubmitDeadline: 30 * time.Second,
		FaultSpec:      chaosFaultSpec,
	}
	go func() {
		opts := base
		opts.Ready = s1Ready
		opts.JournalPath = s1Journal
		rep, err := ServeS1(ctx, s1Files, ServeOptions{
			ServerOptions: opts,
			LedgerPath:    ledgerPath,
			Delta:         delta,
			MaxInFlight:   workers + 1,
			RotateAfter:   total / 2,
			DrainCh:       drainCh,
			DrainTimeout:  2 * time.Minute,
		})
		s1Done <- s1ServeResult{rep, err}
	}()
	s1Addr := <-s1Ready

	s2Ready := make(chan string, 1)
	s2Done := make(chan s2ServeResult, 1)
	go func() {
		opts := base
		opts.Seed = 812
		opts.PeerAddr = s1Addr
		opts.Ready = s2Ready
		opts.JournalPath = s2Journal
		rep, err := ServeS2(ctx, s2Files, ServeOptions{ServerOptions: opts, DrainTimeout: 2 * time.Minute})
		s2Done <- s2ServeResult{rep, err}
	}()
	s2Addr := <-s2Ready

	// Concurrent tenants drain a shared queue of queries; a worker keeps
	// its own ServeClient (clients are single-goroutine by contract), so
	// admissions from one tenant overlap other tenants' in-flight
	// comparison phases.
	jobs := make(chan int, total)
	for i := 0; i < total; i++ {
		jobs <- i
	}
	close(jobs)
	var (
		mu         sync.Mutex
		results    []ServeResult
		quorumMiss int
		faulted    int
		unclean    []string
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client, err := NewServeClient(pubs, ServeClientOptions{
				Tenant: int64(w + 1), S1Addr: s1Addr, S2Addr: s2Addr,
				Seed: int64(821 + w), MaxRetries: 5, Backoff: 5 * time.Millisecond,
				AttemptTimeout: 30 * time.Second, FaultSpec: chaosFaultSpec,
			})
			if err != nil {
				mu.Lock()
				unclean = append(unclean, fmt.Sprintf("worker %d client: %v", w, err))
				mu.Unlock()
				return
			}
			for q := range jobs {
				votes := make([][]float64, users)
				for u := range votes {
					votes[u] = oneHot(cfg.Classes, q%cfg.Classes)
				}
				for {
					res, err := client.Do(ctx, votes)
					switch {
					case err == nil:
						mu.Lock()
						results = append(results, *res)
						mu.Unlock()
					case errors.Is(err, protocol.ErrQuorumNotMet):
						// A typed quorum miss is a clean outcome under
						// chaos: the query resolved, no label released.
						mu.Lock()
						quorumMiss++
						mu.Unlock()
					case errors.Is(err, ErrQueryFailed):
						// So is a typed retry-budget exhaustion: the query
						// resolved, its spend committed, and the failure
						// was reported — bounded below.
						mu.Lock()
						faulted++
						mu.Unlock()
					case errors.Is(err, ErrOverloaded):
						time.Sleep(20 * time.Millisecond)
						continue
					default:
						mu.Lock()
						unclean = append(unclean, fmt.Sprintf("query %d (tenant %d): %v", q, w+1, err))
						mu.Unlock()
					}
					break
				}
			}
		}(w)
	}
	wg.Wait()

	close(drainCh)
	r1 := <-s1Done
	r2 := <-s2Done
	if r1.err != nil {
		t.Fatalf("S1 serve: %v", r1.err)
	}
	if r2.err != nil {
		t.Fatalf("S2 serve: %v", r2.err)
	}
	for _, msg := range unclean {
		t.Errorf("unclean failure: %s", msg)
	}
	if got := len(results) + quorumMiss + faulted; got != total {
		t.Errorf("resolved %d of %d queries (%d consensus-path, %d quorum misses, %d faulted)",
			got, total, len(results), quorumMiss, faulted)
	}
	// The fault layer may exhaust a query's retry budget; that resolves
	// the query with a typed failure, which is clean — but it must stay a
	// small minority or the retry sizing is broken.
	if faulted > total/5 {
		t.Errorf("%d of %d queries exhausted retries, want <= %d", faulted, total, total/5)
	}
	if len(r1.rep.Results) != total {
		t.Errorf("S1 report has %d queries, want %d", len(r1.rep.Results), total)
	}
	s1Failed := 0
	for _, res := range r1.rep.Results {
		if res.Err != nil && !errors.Is(res.Err, protocol.ErrQuorumNotMet) {
			s1Failed++
		}
	}
	if s1Failed != faulted {
		t.Errorf("S1 reports %d failed queries, clients observed %d", s1Failed, faulted)
	}
	if got := r1.rep.Admissions["admitted"]; got != total {
		t.Errorf("admitted %d, want %d", got, total)
	}

	// Rotation: exactly one mid-soak, with queries completing under both
	// epochs and the old epoch retired (keys zeroized) after its drain.
	if r1.rep.Rotations != 1 || r1.rep.Epoch != 1 {
		t.Errorf("rotations=%d final epoch=%d, want 1/1", r1.rep.Rotations, r1.rep.Epoch)
	}
	epochs := map[int]int{}
	for _, res := range results {
		epochs[res.Epoch]++
	}
	if epochs[0] == 0 || epochs[1] == 0 {
		t.Errorf("epoch spread %v: want queries under both epoch 0 and epoch 1", epochs)
	}
	evs, err := obs.ReadJournalFile(s1Journal)
	if err != nil {
		t.Fatal(err)
	}
	var committed, retired, faults, retries int
	for _, ev := range evs {
		switch {
		case ev.Type == obs.EventEpoch && ev.Note == "committed epoch=1":
			committed++
		case ev.Type == obs.EventEpoch && ev.Note == "retired epoch=0":
			retired++
		case ev.Type == obs.EventFault:
			faults++
		case ev.Type == obs.EventRetry:
			retries++
		}
	}
	if committed != 1 || retired != 1 {
		t.Errorf("journal rotation trail: committed=%d retired=%d, want 1/1", committed, retired)
	}
	t.Logf("soak: %d queries, %d quorum misses, %d faulted, %d faults injected, %d retries journaled",
		total, quorumMiss, faulted, faults, retries)

	// Accounting invariant: the ledger's committed state equals a fresh
	// accountant replayed from the journaled per-query spend events —
	// exactly, since both apply the same float operations in commit order.
	replayed := map[int64]*dp.Accountant{}
	counts := map[int64][2]int{}
	for _, ev := range evs {
		if ev.Type != obs.EventSpend {
			continue
		}
		var sigma float64
		var tenant int64
		if n, err := fmt.Sscanf(ev.Note, "svt sigma=%g tenant=%d", &sigma, &tenant); n == 2 && err == nil {
			if replayed[tenant] == nil {
				replayed[tenant] = dp.NewAccountant()
			}
			if err := replayed[tenant].AddSVT(sigma); err != nil {
				t.Fatal(err)
			}
			c := counts[tenant]
			c[0]++
			counts[tenant] = c
			continue
		}
		if n, err := fmt.Sscanf(ev.Note, "rnm sigma=%g tenant=%d", &sigma, &tenant); n == 2 && err == nil {
			if replayed[tenant] == nil {
				t.Fatalf("journal releases tenant %d before any SVT spend", tenant)
			}
			if err := replayed[tenant].AddRNM(sigma); err != nil {
				t.Fatal(err)
			}
			c := counts[tenant]
			c[1]++
			counts[tenant] = c
			continue
		}
		t.Fatalf("unparseable spend event %q", ev.Note)
	}
	if len(r1.rep.Tenants) != len(replayed) {
		t.Fatalf("ledger has %d tenants, journal replay has %d", len(r1.rep.Tenants), len(replayed))
	}
	for _, spend := range r1.rep.Tenants {
		acc := replayed[spend.Tenant]
		if acc == nil {
			t.Errorf("tenant %d in ledger but not in journal", spend.Tenant)
			continue
		}
		if spend.Coefficient != acc.Coefficient() {
			t.Errorf("tenant %d: ledger coefficient %v != journal replay %v", spend.Tenant, spend.Coefficient, acc.Coefficient())
		}
		c := counts[spend.Tenant]
		if spend.Queries != c[0] || spend.Releases != c[1] {
			t.Errorf("tenant %d: ledger counts (%d, %d) != journaled (%d, %d)",
				spend.Tenant, spend.Queries, spend.Releases, c[0], c[1])
		}
	}

	// The durable ledger file reloads to the same state the report carried.
	b, err := dp.OpenLedger(ledgerPath, nil, 0, delta)
	if err != nil {
		t.Fatalf("reload ledger: %v", err)
	}
	defer b.Close()
	reloaded := b.Spends()
	if len(reloaded) != len(r1.rep.Tenants) {
		t.Fatalf("reloaded ledger %+v != report %+v", reloaded, r1.rep.Tenants)
	}
	for i := range reloaded {
		if reloaded[i] != r1.rep.Tenants[i] {
			t.Errorf("reloaded spend %+v != report %+v", reloaded[i], r1.rep.Tenants[i])
		}
	}

	// Journals chain-verify end to end.
	for _, path := range []string{s1Journal, s2Journal} {
		if n, err := obs.VerifyJournalFile(path); err != nil || n == 0 {
			t.Errorf("%s: %d records, err %v", path, n, err)
		}
	}
}
