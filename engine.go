package privconsensus

import (
	"context"
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"slices"
	"sync"

	"github.com/privconsensus/privconsensus/internal/deploy"
	"github.com/privconsensus/privconsensus/internal/keystore"
	"github.com/privconsensus/privconsensus/internal/mathutil"
	"github.com/privconsensus/privconsensus/internal/protocol"
)

// Config parameterizes an Engine.
type Config struct {
	// Classes is the number of labels K.
	Classes int
	// Users is the number of voting parties.
	Users int
	// ThresholdFrac is the consensus threshold as a fraction of users
	// (the paper defaults to 0.6: consensus requires 60% agreement).
	ThresholdFrac float64
	// Sigma1 is the threshold-check (SVT) noise deviation in votes.
	Sigma1 float64
	// Sigma2 is the Report-Noisy-Maximum deviation in votes.
	Sigma2 float64
	// PaillierBits sizes the servers' Paillier keys (paper prototype: 64;
	// production: >= 2048). Zero selects the default 64.
	PaillierBits int
	// DGKBits sizes the DGK comparison modulus. Zero selects a fast
	// simulation default (192). Only the modulus grows: the secret primes
	// v_p, v_q stay 40 bits at every size, so ord(h) is about 80 bits and
	// can be found in about 2^40 group operations (README § Security notes).
	DGKBits int
	// Seed, when non-zero, makes the engine fully deterministic (for
	// tests and reproducible simulations). Zero uses crypto/rand.
	Seed int64
	// AccountantPath, when non-empty, is S1's durable privacy ledger: every
	// call reloads it, records each spend in it (fsync + atomic rename) and
	// reports the cumulative ε, so the (ε, δ) budget survives process
	// restarts. A spend the ledger fails to record fails the call.
	AccountantPath string
	// JournalPath, when non-empty, is S1's hash-chained JSONL event journal
	// (see internal/obs and cmd/trace): every call appends its queries'
	// phase spans and privacy spends under a fresh trace ID.
	JournalPath string
}

// DefaultConfig mirrors the paper's experimental setup.
func DefaultConfig(users int) Config {
	return Config{
		Classes:       10,
		Users:         users,
		ThresholdFrac: 0.6,
		Sigma1:        4,
		Sigma2:        2,
	}
}

// Outcome is the protocol result for one query instance.
type Outcome struct {
	// Consensus reports whether the highest noisy vote cleared the
	// threshold.
	Consensus bool
	// Label is the released label (argmax of the noisy votes), or -1
	// when no consensus was reached.
	Label int
}

// Engine holds the key material for running the private consensus protocol
// on the deployment's two servers (internal/deploy), as cmd/server and
// cmd/user run it across processes. Create one with NewEngine; an Engine is
// safe for concurrent use and runs one call at a time.
//
// Each call listens on two unauthenticated loopback ports (127.0.0.1) for
// as long as it runs, and any local process may connect to them: do not use
// the Engine on a host shared with untrusted users (README § Security notes).
type Engine struct {
	cfg   Config
	pcfg  protocol.Config
	mu    sync.Mutex  // held for a whole call
	seeds *mrand.Rand // a seeded engine's stream; nil draws crypto/rand
	// s1 is S1's key file, kept decoded across calls: S1 zeroizes keys
	// only when it retires an epoch, which an engine never does. s2 is
	// S2's as JSON: S2 zeroizes its keys when it exits, so every call
	// decodes a fresh copy.
	s1  *keystore.S1File
	s2  []byte
	pub *keystore.PublicFile
}

// NewEngine validates cfg and generates all server key material.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Users < 1 {
		return nil, errors.New("privconsensus: need at least 1 user")
	}
	pcfg := protocol.DefaultConfig(cfg.Users)
	if cfg.Classes > 0 {
		pcfg.Classes = cfg.Classes
	}
	pcfg.ThresholdFrac = cfg.ThresholdFrac
	pcfg.Sigma1 = cfg.Sigma1
	pcfg.Sigma2 = cfg.Sigma2
	paillierBits, dgkBits := pcfg.PaillierBits, pcfg.DGK.NBits
	if cfg.PaillierBits > 0 {
		paillierBits = cfg.PaillierBits
	}
	if cfg.DGKBits > 0 {
		dgkBits = cfg.DGKBits
	}
	pcfg = pcfg.KeyShape(paillierBits, dgkBits)
	if err := pcfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, pcfg: pcfg}
	var rng io.Reader = rand.Reader
	if cfg.Seed != 0 {
		// Seeds come from a stream of their own, forked before key generation:
		// crypto/rand.Prime reads a random count of bytes from rng.
		r := mrand.New(mrand.NewSource(cfg.Seed))
		e.seeds = mrand.New(mrand.NewSource(r.Int63()))
		rng = r
	}
	keys, err := protocol.GenerateKeys(rng, pcfg)
	if err != nil {
		return nil, fmt.Errorf("privconsensus: generate keys: %w", err)
	}
	s1, s2, pub, err := keystore.Split(pcfg, keys)
	if err == nil {
		e.s2, err = json.Marshal(s2)
	}
	if err != nil {
		return nil, err
	}
	e.s1, e.pub = s1, pub
	return e, nil
}

// LabelInstance labels one query, a batch of one: votes[user][class] are every
// user's predictions, one-hot or probability vectors with entries in [0, 1].
func (e *Engine) LabelInstance(ctx context.Context, votes [][]float64) (*Outcome, error) {
	res, err := e.LabelBatch(ctx, [][][]float64{votes})
	if err == nil && len(res.Failed) > 0 {
		err = res.Failed[0].Err
	}
	if err != nil {
		return nil, err
	}
	return &res.Outcomes[0], nil
}

// QueryFailure records one batch query that could not be completed: its
// index into the batch and its error.
type QueryFailure struct {
	Query int
	Err   error
}

// BatchResult pairs each query's outcome with the cumulative privacy spend.
type BatchResult struct {
	// Outcomes has one entry per query, in order; a failed one is {false, -1}.
	Outcomes []Outcome
	// Epsilon is the (ε, δ=1e-6)-DP spend S1's ledger holds: this batch's, or
	// all the AccountantPath file recorded. An empty batch reports 0; a
	// batch at Sigma1 = 0 (or Sigma2 = 0 with a release) is non-private: +Inf.
	Epsilon float64
	// Released counts the queries that reached consensus.
	Released int
	// Failed lists the queries that failed, which still pay their SVT cost.
	Failed []QueryFailure
}

// LabelBatch runs every query in votes (votes[q][user][class]) on one
// server pair: S1 and S2 start on 127.0.0.1 with the batch registered, the
// users upload their rows, and the pair drains once every query resolved.
// The grid is checked first, so a malformed row costs no privacy budget.
// LabelBatch errors on a malformed row, when the context ends, when a
// server or upload fails, or when S1's ledger fails to record a spend.
func (e *Engine) LabelBatch(ctx context.Context, votes [][][]float64) (*BatchResult, error) {
	rows, err := e.userRows(votes)
	if err != nil {
		return nil, err
	}
	if len(votes) == 0 {
		return &BatchResult{}, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var s2 keystore.S2File
	if err := json.Unmarshal(e.s2, &s2); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	opts := func(peer, ledger, journal string, ready chan string) deploy.ServeOptions {
		return deploy.ServeOptions{LedgerPath: ledger, ServerOptions: deploy.ServerOptions{ListenAddr: "127.0.0.1:0",
			PeerAddr: peer, Instances: len(votes), Seed: e.seed(), Ready: ready, JournalPath: journal}}
	}
	// A failing server cancels the other and the uploads; the servers then
	// fail the open queries, whose SVT spend S1 still records.
	var rep *deploy.ServeReport
	var err1, err2 error
	ready1, ready2 := make(chan string, 1), make(chan string, 1)
	stopped1, stopped2 := make(chan struct{}), make(chan struct{})
	opts1 := opts("", e.cfg.AccountantPath, e.cfg.JournalPath, ready1)
	go func() {
		defer close(stopped1)
		if rep, err1 = deploy.ServeS1(ctx, []*keystore.S1File{e.s1}, opts1); err1 != nil {
			cancel()
		}
	}()
	var addr1, addr2 string
	select {
	case addr1 = <-ready1:
	case <-stopped1:
		return nil, fmt.Errorf("privconsensus: %w", err1)
	}
	opts2 := opts(addr1, "", "", ready2)
	go func() {
		defer close(stopped2)
		if _, err2 = deploy.ServeS2(ctx, []*keystore.S2File{&s2}, opts2); err2 != nil {
			cancel()
		}
	}()
	select {
	case addr2 = <-ready2:
		seeds := make([]int64, len(rows)) // drawn in user order: the uploads run concurrently
		for u := range seeds {
			seeds[u] = e.seed()
		}
		err = mathutil.ParallelFor(protocol.Workers(), len(rows), func(_, u int) error {
			return deploy.SubmitVotes(ctx, e.pub, deploy.UserOptions{User: u, S1Addr: addr1, S2Addr: addr2, Seed: seeds[u]}, rows[u])
		})
		if err != nil {
			cancel()
		}
	case <-stopped2:
	}
	<-stopped1
	<-stopped2
	if err := errors.Join(err, err1, err2); err != nil {
		return nil, fmt.Errorf("privconsensus: %w", err)
	}
	res := &BatchResult{Outcomes: make([]Outcome, len(rep.Results))}
	for q, r := range rep.Results {
		res.Outcomes[q] = Outcome{Consensus: r.Outcome.Consensus, Label: r.Outcome.Label}
		if r.Err != nil {
			res.Failed = append(res.Failed, QueryFailure{Query: q, Err: r.Err})
		} else if r.Outcome.Consensus {
			res.Released++
		}
	}
	for _, t := range rep.Tenants {
		if t.Tenant == 0 {
			res.Epsilon = t.Epsilon
		}
	}
	return res, nil
}

// userRows checks the votes grid and regroups it by user: rows[u][q].
func (e *Engine) userRows(votes [][][]float64) ([][][]float64, error) {
	rows := make([][][]float64, e.pcfg.Users)
	for q, inst := range votes {
		if len(inst) != e.pcfg.Users {
			return nil, fmt.Errorf("privconsensus: query %d: got votes from %d users, want %d", q, len(inst), e.pcfg.Users)
		}
		for u, v := range inst {
			if len(v) != e.pcfg.Classes || slices.ContainsFunc(v, func(x float64) bool { return !(x >= 0 && x <= 1) }) {
				return nil, fmt.Errorf("privconsensus: query %d user %d: want %d votes, each in [0, 1]", q, u, e.pcfg.Classes)
			}
			rows[u] = append(rows[u], v)
		}
	}
	return rows, nil
}

// seed draws a party's own seed from a seeded engine's stream, never 0 (which
// means crypto/rand): users that shared one would share masks and noise.
func (e *Engine) seed() int64 {
	if e.seeds == nil {
		return 0
	}
	return e.seeds.Int63() | 1
}
