package privconsensus

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	mrand "math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/privconsensus/privconsensus/internal/dgk"
	"github.com/privconsensus/privconsensus/internal/fixedpoint"
	"github.com/privconsensus/privconsensus/internal/mathutil"
	"github.com/privconsensus/privconsensus/internal/obs"
	"github.com/privconsensus/privconsensus/internal/paillier"
	"github.com/privconsensus/privconsensus/internal/protocol"
	"github.com/privconsensus/privconsensus/internal/transport"
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
	// Quorum enables partial participation: the minimum number of users a
	// query needs. A value in (0, 1) is a fraction of Users (rounded up);
	// >= 1 an absolute count. With Quorum set, a nil row in the votes grid
	// marks an absent user and the query runs over whoever voted; a query
	// below quorum fails with ErrQuorumNotMet. 0 (the default) requires
	// full participation, as before.
	Quorum float64
	// AbsoluteThreshold fixes the consensus threshold at
	// ThresholdFrac×Users votes regardless of how many users participate.
	// The default (false) scales it to ThresholdFrac×participants, keeping
	// the paper's "fraction of voters" semantics under dropout. The two
	// modes agree at full participation.
	AbsoluteThreshold bool
	// AccountantPath, when non-empty, makes the engine's privacy accountant
	// durable: its state is reloaded from this file by NewEngine and
	// atomically rewritten after every recorded spend, so the cumulative
	// (ε, δ) budget survives process restarts.
	AccountantPath string
	// JournalPath, when non-empty, appends every query's phase spans,
	// annotations and privacy-accountant spends to a hash-chained JSONL
	// event journal at this path (see internal/obs and cmd/trace). Close
	// the engine with Engine.Close when set.
	JournalPath string
}

// ErrQuorumNotMet reports a query released with fewer participants than
// Config.Quorum. It is terminal for the query — retrying cannot conjure the
// missing submissions — but the rest of a batch still completes.
var ErrQuorumNotMet = protocol.ErrQuorumNotMet

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
	// Participants is how many users' votes the query aggregated; Dropped
	// is how many configured users were absent. Participants == Users and
	// Dropped == 0 under full participation.
	Participants int
	Dropped      int
}

// Submission is a user's encrypted contribution for one query instance.
// It is opaque: the halves are encrypted under different server keys, so
// neither server alone learns the user's votes.
type Submission struct {
	inner *protocol.Submission
}

// Engine holds the key material and configuration for running the private
// consensus protocol. Create one with NewEngine; an Engine is safe for
// concurrent use once constructed.
type Engine struct {
	cfg   Config
	pcfg  protocol.Config
	keys  *protocol.Keys
	rngMu sync.Mutex
	rng   io.Reader
	noise *mrand.Rand

	queries   atomic.Int64
	traceMu   sync.Mutex
	lastTrace *obs.QueryTrace

	// acct is the durable privacy accountant (nil unless AccountantPath is
	// set); LabelBatch records every spend into it.
	acct *Accountant

	// journal is the durable event journal (nil unless JournalPath is set);
	// every query's trace and every accountant spend is appended to it.
	journal *obs.Journal
}

// NewEngine validates cfg and generates all server key material.
func NewEngine(cfg Config) (*Engine, error) {
	pcfg, err := toProtocolConfig(cfg)
	if err != nil {
		return nil, err
	}
	var rng io.Reader = rand.Reader
	noiseSeed := int64(0)
	if cfg.Seed != 0 {
		rng = mrand.New(mrand.NewSource(cfg.Seed))
		noiseSeed = cfg.Seed + 1
	} else {
		var b [8]byte
		if _, err := io.ReadFull(rand.Reader, b[:]); err != nil {
			return nil, fmt.Errorf("privconsensus: seed noise rng: %w", err)
		}
		for _, x := range b {
			noiseSeed = noiseSeed<<8 | int64(x)
		}
	}
	keys, err := protocol.GenerateKeys(rng, pcfg)
	if err != nil {
		return nil, fmt.Errorf("privconsensus: generate keys: %w", err)
	}
	var acct *Accountant
	if cfg.AccountantPath != "" {
		if acct, err = NewAccountantAt(cfg.AccountantPath); err != nil {
			return nil, err
		}
	}
	var journal *obs.Journal
	if cfg.JournalPath != "" {
		journal, err = obs.OpenJournal(cfg.JournalPath, obs.JournalOptions{Role: "engine"})
		if err != nil {
			return nil, err
		}
		id, err := obs.MintTraceID(cfg.Seed)
		if err != nil {
			journal.Close()
			return nil, err
		}
		if err := journal.BeginTrace(obs.TraceIDString(id)); err != nil {
			journal.Close()
			return nil, err
		}
	}
	return &Engine{
		cfg:     cfg,
		pcfg:    pcfg,
		keys:    keys,
		rng:     rng,
		noise:   mrand.New(mrand.NewSource(noiseSeed)),
		acct:    acct,
		journal: journal,
	}, nil
}

// Close releases the engine's durable resources: the event journal and
// the accountant's exclusive state lock. Safe to call on an engine
// without either, and idempotent.
func (e *Engine) Close() error {
	err := e.journal.Close()
	if e.acct != nil {
		if cerr := e.acct.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// toProtocolConfig maps the public config onto the internal protocol
// parameters.
func toProtocolConfig(cfg Config) (protocol.Config, error) {
	if cfg.Users < 1 {
		return protocol.Config{}, errors.New("privconsensus: need at least 1 user")
	}
	if cfg.Quorum < 0 {
		return protocol.Config{}, fmt.Errorf("privconsensus: negative quorum %g", cfg.Quorum)
	}
	pcfg := protocol.DefaultConfig(cfg.Users)
	if cfg.Classes > 0 {
		pcfg.Classes = cfg.Classes
	}
	pcfg.ThresholdFrac = cfg.ThresholdFrac
	pcfg.AbsoluteThreshold = cfg.AbsoluteThreshold
	pcfg.Sigma1 = cfg.Sigma1
	pcfg.Sigma2 = cfg.Sigma2
	if cfg.PaillierBits > 0 {
		pcfg.PaillierBits = cfg.PaillierBits
	}
	if cfg.DGKBits > 0 {
		pcfg.DGK = dgk.Params{NBits: cfg.DGKBits, TBits: 40, U: 1009, L: 56}
	}
	if err := pcfg.Validate(); err != nil {
		return protocol.Config{}, err
	}
	return pcfg, nil
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Accountant returns the engine's durable privacy accountant, or nil when
// Config.AccountantPath is unset (LabelBatch then accounts per batch).
func (e *Engine) Accountant() *Accountant { return e.acct }

// SubmissionFor builds user `user`'s encrypted submission for one query.
// votes is the user's per-class prediction: a one-hot indicator or a
// probability vector; each entry must be in [0, 1].
func (e *Engine) SubmissionFor(user int, votes []float64) (*Submission, error) {
	if len(votes) != e.pcfg.Classes {
		return nil, fmt.Errorf("privconsensus: votes length %d != classes %d", len(votes), e.pcfg.Classes)
	}
	units := make([]*big.Int, len(votes))
	for i, v := range votes {
		if v < 0 || v > 1 {
			return nil, fmt.Errorf("privconsensus: vote %g for class %d outside [0, 1]", v, i)
		}
		u, err := fixedpoint.EncodeUnits(v)
		if err != nil {
			return nil, fmt.Errorf("privconsensus: encode vote for class %d: %w", i, err)
		}
		units[i] = big.NewInt(u)
	}
	e.rngMu.Lock()
	defer e.rngMu.Unlock()
	sub, _, err := protocol.BuildSubmission(e.rng, e.noise, e.pcfg, user, units,
		e.keys.S1Paillier.Public(), e.keys.S2Paillier.Public())
	if err != nil {
		return nil, err
	}
	return &Submission{inner: sub}, nil
}

// LabelInstance runs the full two-server protocol in-process for one query
// instance: votes[user][class] are every user's predictions. Both servers
// execute concurrently over an in-memory transport. With Config.Quorum set,
// a nil row marks an absent user and the query runs over whoever voted;
// below-quorum queries fail with ErrQuorumNotMet.
func (e *Engine) LabelInstance(ctx context.Context, votes [][]float64) (*Outcome, error) {
	subs, err := e.submissionsFor(votes)
	if err != nil {
		return nil, err
	}
	out, _, err := e.labelInstance(ctx, votes, subs, nil)
	return out, err
}

// submissionsFor encrypts the votes grid, treating nil rows as absent users
// when partial participation is enabled, and enforces the quorum.
func (e *Engine) submissionsFor(votes [][]float64) ([]*Submission, error) {
	if len(votes) != e.pcfg.Users {
		return nil, fmt.Errorf("privconsensus: got votes from %d users, want %d", len(votes), e.pcfg.Users)
	}
	subs := make([]*Submission, len(votes))
	participants := 0
	for u, v := range votes {
		if v == nil && e.cfg.Quorum > 0 {
			continue // absent user
		}
		sub, err := e.SubmissionFor(u, v)
		if err != nil {
			return nil, fmt.Errorf("privconsensus: user %d: %w", u, err)
		}
		subs[u] = sub
		participants++
	}
	if q := protocol.QuorumCount(e.cfg.Quorum, e.pcfg.Users, e.pcfg.Users); participants < q {
		return nil, fmt.Errorf("privconsensus: %d of %d users voted, quorum is %d: %w",
			participants, e.pcfg.Users, q, ErrQuorumNotMet)
	}
	return subs, nil
}

// StepStats reports one protocol step's cost, mirroring the rows of the
// paper's Tables I and II.
type StepStats struct {
	// Step is the Alg. 5 step label, e.g. "secure-comparison(4)".
	Step string
	// BytesSent is the traffic S1 sent to S2 during the step.
	BytesSent int64
	// BytesReceived is the traffic S1 received from S2.
	BytesReceived int64
	// Messages counts frames sent by S1.
	Messages int64
	// Elapsed is the wall time S1 spent in the step.
	Elapsed time.Duration
}

// LabelInstanceMetered is LabelInstance plus per-step time and traffic
// accounting, for cost analysis of a deployment.
func (e *Engine) LabelInstanceMetered(ctx context.Context, votes [][]float64) (*Outcome, []StepStats, error) {
	subs, err := e.submissionsFor(votes)
	if err != nil {
		return nil, nil, err
	}
	meter := transport.NewMeter()
	out, stats, err := e.labelInstance(ctx, votes, subs, meter)
	return out, stats, err
}

// labelInstance runs both servers in process (protocol.RunPair). statsWanted
// distinguishes the metered entry point; a meter is created regardless so
// every query yields a full trace (see LastTrace).
func (e *Engine) labelInstance(ctx context.Context, votes [][]float64, subs []*Submission, meter *transport.Meter) (*Outcome, []StepStats, error) {
	statsWanted := meter != nil
	if meter == nil {
		meter = transport.NewMeter()
	}
	qn := e.queries.Add(1)
	tracer := obs.NewTracer(fmt.Sprintf("q%d", qn))
	present := 0
	for _, s := range subs {
		if s != nil {
			present++
		}
	}
	tracer.SetParticipants(present, e.pcfg.Users-present)
	// Op counters are process-wide; in this in-process simulation the
	// watched deltas cover both servers' work combined.
	paillier.WatchOps(tracer)
	dgk.WatchOps(tracer)
	mathutil.WatchOps(tracer)

	inner := make([]*protocol.Submission, len(subs))
	for u, s := range subs {
		if s != nil {
			inner[u] = s.inner
		}
	}
	out, err := protocol.RunPair(obs.WithTracer(ctx, tracer), e.pcfg, e.keys.ForS1(), e.keys.ForS2(),
		e.runRNG(), e.runRNG(), inner, meter)
	meter.FillTrace(tracer)
	switch {
	case err != nil:
		err = fmt.Errorf("privconsensus: %w", err)
		tracer.Finish("error", err)
	case out.Consensus:
		tracer.Finish(fmt.Sprintf("consensus label=%d", out.Label), nil)
	default:
		tracer.Finish("no-consensus", nil)
	}
	qt := tracer.Trace()
	e.traceMu.Lock()
	e.lastTrace = qt
	e.traceMu.Unlock()
	obs.DefaultTraces.Add(qt)
	// Journal append failures must not fail the query; the outcome is
	// already decided.
	e.journal.AppendTrace(int(qn)-1, 1, qt) //nolint:errcheck
	if err != nil {
		return nil, nil, err
	}
	var stats []StepStats
	if statsWanted {
		for _, s := range meter.Snapshot() {
			stats = append(stats, StepStats{
				Step:          s.Step,
				BytesSent:     s.BytesSent,
				BytesReceived: s.BytesReceived,
				Messages:      s.MsgsSent,
				Elapsed:       s.Elapsed,
			})
		}
	}
	return e.outcome(out), stats, nil
}

// LastTrace returns the QueryTrace of the most recent in-process query run
// by this engine (LabelInstance, LabelInstanceMetered or LabelBatch), or
// nil before the first query. The returned trace is a private copy.
func (e *Engine) LastTrace() *obs.QueryTrace {
	e.traceMu.Lock()
	defer e.traceMu.Unlock()
	return e.lastTrace
}

// Stats returns a sorted snapshot of every process-wide metric series
// (Paillier/DGK operation counts, transport traffic, per-phase timings) — the same numbers the /metrics endpoint exposes,
// without HTTP.
func (e *Engine) Stats() []obs.Point {
	return obs.Default.Snapshot()
}

// QueryFailure records one batch query that could not be completed.
type QueryFailure struct {
	// Query is the index into the batch.
	Query int
	// Err is the query's error.
	Err error
}

// BatchResult pairs each query's outcome with the cumulative privacy spend
// of the batch.
type BatchResult struct {
	// Outcomes has one entry per batch query, in order. A failed query
	// (see Failed) carries the placeholder {Consensus: false, Label: -1}.
	Outcomes []Outcome
	// Epsilon is the total (ε, δ=1e-6)-DP spend per the paper's
	// accounting: every query pays SVT, released labels additionally pay
	// RNM. With Config.AccountantPath set the accountant is durable and
	// Epsilon covers everything it ever recorded, including prior runs.
	Epsilon float64
	// Released counts the queries that reached consensus.
	Released int
	// Participants is the total number of user votes aggregated across the
	// batch; Dropped is the total excluded (absent rows, including every
	// configured user of a quorum-missed query). Both mirror the
	// per-query counts in Outcomes.
	Participants int
	Dropped      int
	// Failed lists the queries that failed or missed the quorum (their Err
	// unwraps to ErrQuorumNotMet). The rest of the batch still completes.
	Failed []QueryFailure
}

var engineQueriesFailed = obs.Default.Counter("queries_failed_total",
	"Query instances that failed after exhausting the retry budget.",
	obs.L("role", "engine"))

// LabelBatch runs LabelInstance for every query in votes (votes[q][user]
// [class]) and tracks the privacy spend with the built-in accountant (the
// durable one when Config.AccountantPath is set). A query that fails or
// misses the quorum (ErrQuorumNotMet) is recorded in BatchResult.Failed with
// a placeholder outcome while the rest of the batch completes — an
// in-process run has no transient failure a retry could fix. Failed queries
// conservatively still pay their SVT privacy cost — the protocol may have
// consumed the noisy threshold comparison before the failure. LabelBatch
// itself errors only on structural problems: a cancelled context or
// accountant failure.
func (e *Engine) LabelBatch(ctx context.Context, votes [][][]float64) (*BatchResult, error) {
	res := &BatchResult{Outcomes: make([]Outcome, 0, len(votes))}
	acc := e.acct
	if acc == nil {
		acc = NewAccountant()
	}
	for q, instance := range votes {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("privconsensus: query %d: %w", q, err)
		}
		out, err := e.LabelInstance(ctx, instance)
		if err != nil {
			if ctx.Err() != nil {
				return nil, fmt.Errorf("privconsensus: query %d: %w", q, err)
			}
			if !errors.Is(err, ErrQuorumNotMet) {
				engineQueriesFailed.Inc()
			}
			res.Failed = append(res.Failed, QueryFailure{Query: q, Err: err})
			out = &Outcome{Consensus: false, Label: -1, Dropped: e.pcfg.Users}
		}
		res.Outcomes = append(res.Outcomes, *out)
		res.Participants += out.Participants
		res.Dropped += out.Dropped
		svt, rnm := e.cfg.Sigma1 > 0, out.Consensus && e.cfg.Sigma2 > 0
		if out.Consensus {
			res.Released++
		}
		if svt || rnm {
			if err := acc.commit(e.cfg.Sigma1, e.cfg.Sigma2, out.Consensus); err != nil {
				return nil, err
			}
		}
		if svt {
			e.journalSpend(q, fmt.Sprintf("svt sigma=%g", e.cfg.Sigma1))
		}
		if rnm {
			e.journalSpend(q, fmt.Sprintf("rnm sigma=%g", e.cfg.Sigma2))
		}
	}
	eps, _, err := acc.Epsilon(1e-6)
	if err != nil {
		return nil, err
	}
	res.Epsilon = eps
	return res, nil
}

// journalSpend records one privacy-accountant spend in the event journal
// (no-op without a journal; append failures never fail the batch — the
// spend itself is already durably recorded by the accountant).
func (e *Engine) journalSpend(query int, note string) {
	e.journal.Append(obs.Event{Type: obs.EventSpend, Instance: query, Note: note}) //nolint:errcheck
}

// runRNG returns the randomness of one server run: a stream seeded from the
// engine's own when the engine is seeded, crypto/rand otherwise.
func (e *Engine) runRNG() io.Reader {
	e.rngMu.Lock()
	defer e.rngMu.Unlock()
	if r, ok := e.rng.(*mrand.Rand); ok {
		if seed := r.Int63(); seed != 0 {
			return mrand.New(mrand.NewSource(seed))
		}
	}
	return rand.Reader
}

// outcome lifts a protocol outcome into the public one.
func (e *Engine) outcome(out *protocol.Outcome) *Outcome {
	return &Outcome{Consensus: out.Consensus, Label: out.Label,
		Participants: out.Participants, Dropped: e.pcfg.Users - out.Participants}
}
