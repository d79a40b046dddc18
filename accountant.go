package privconsensus

import (
	"fmt"

	"github.com/privconsensus/privconsensus/internal/dp"
)

// Accountant tracks the cumulative Rényi-DP privacy spend of a sequence of
// consensus queries and converts it to (ε, δ)-differential privacy.
//
// Every query pays the Sparse Vector Technique cost (Lemma 1 of the paper:
// 9α/2σ₁² at order α); queries whose label is actually released
// additionally pay the Report Noisy Maximum cost (Lemma 2: α/σ₂²).
//
// It is the single-tenant view (tenant 0, no quota) of the one durable ε
// store, dp.Ledger. An Accountant created with NewAccountantAt is durable:
// its state is rewritten (write-temp-fsync-rename-fsync, so a crash never
// truncates or loses it) after every recorded spend, and reloaded on
// construction. The state path is guarded by an exclusive lock file for the
// accountant's lifetime, so two processes pointed at the same path cannot
// interleave spends; release it with Close. An Accountant is safe for
// concurrent use.
type Accountant struct {
	ledger *dp.Ledger
}

// NewAccountant returns an empty in-memory accountant.
func NewAccountant() *Accountant {
	a, _ := NewAccountantAt("") // an in-memory ledger cannot fail to open
	return a
}

// NewAccountantAt returns an accountant whose spend is persisted at path:
// an existing state file is reloaded (so privacy spend survives process
// restarts), a missing one starts the accountant empty, and every
// RecordQuery/RecordRelease atomically rewrites the file with fsync. A
// state file in the flat shape earlier versions wrote still loads; the next
// spend rewrites it in the ledger's versioned shape, which those versions
// cannot read back.
//
// The path is guarded by an exclusive lock file (path + ".lock") held
// until Close: a second process (or a second accountant in this process)
// opening the same path fails immediately rather than silently
// interleaving — and under-counting — the privacy spend.
func NewAccountantAt(path string) (*Accountant, error) {
	// The δ only sets what the ledger's own reports convert at; this view
	// converts at the caller's (Epsilon).
	ledger, err := dp.OpenLedger(path, nil, 0, 1e-6)
	if err != nil {
		return nil, fmt.Errorf("privconsensus: accountant: %w", err)
	}
	return &Accountant{ledger: ledger}, nil
}

// Close releases the exclusive lock on the state path so another
// accountant may open it. The in-memory view stays readable; further
// spends are rejected. Idempotent, and a no-op for in-memory accountants.
func (a *Accountant) Close() error { return a.ledger.Close() }

// RecordQuery records the SVT spend of one threshold check with deviation
// sigma1 (in votes). Call once per query, released or not.
func (a *Accountant) RecordQuery(sigma1 float64) error {
	if sigma1 <= 0 {
		return dp.ErrBadSigma
	}
	return a.commit(sigma1, 0, false)
}

// RecordRelease records the RNM spend of one released label with deviation
// sigma2.
func (a *Accountant) RecordRelease(sigma2 float64) error {
	if sigma2 <= 0 {
		return dp.ErrBadSigma
	}
	return a.commit(0, sigma2, true)
}

// commit records one finished query in a single ledger write: its SVT check
// when sigma1 > 0 and, when released and sigma2 > 0, its RNM release — the
// rule deploy S1 applies to every query it resolves.
func (a *Accountant) commit(sigma1, sigma2 float64, released bool) error {
	_, err := a.ledger.Commit(0, 0, sigma1, sigma2, released)
	return err
}

// Counts returns the number of recorded SVT (per-query) and RNM
// (per-release) invocations.
func (a *Accountant) Counts() (queries, releases int) {
	acct := a.ledger.Tenant(0)
	return acct.Counts()
}

// Epsilon converts the accumulated spend to (ε, δ)-DP, returning ε and the
// optimal Rényi order α*.
func (a *Accountant) Epsilon(delta float64) (eps, alphaStar float64, err error) {
	acct := a.ledger.Tenant(0)
	return acct.Epsilon(delta)
}

// QueryEpsilon returns the per-query (ε, δ) guarantee of the paper's
// Theorem 5 for a single full protocol execution:
//
//	ε = sqrt(2·(9/σ₁² + 2/σ₂²)·log(1/δ)) + (9/(2σ₁²) + 1/σ₂²)
func QueryEpsilon(sigma1, sigma2, delta float64) (float64, error) {
	return dp.TheoremFiveEpsilon(sigma1, sigma2, delta)
}

// PlanNoise returns the smallest common noise multiplier m such that
// answering `queries` full consensus queries with sigma1 = sigma2 = m
// satisfies (epsilon, delta)-DP. Use it to pick noise levels for a privacy
// budget before running a workload.
func PlanNoise(epsilon, delta float64, queries int) (float64, error) {
	return dp.SigmaForBudget(epsilon, delta, queries, 1, 1)
}
