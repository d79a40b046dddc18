package privconsensus

import (
	"sync"

	"github.com/privconsensus/privconsensus/internal/dp"
)

// Accountant tracks the cumulative Rényi-DP privacy spend of a sequence of
// consensus queries and converts it to (ε, δ)-differential privacy.
//
// Every query pays the Sparse Vector Technique cost (Lemma 1 of the paper:
// 9α/2σ₁² at order α); queries whose label is actually released
// additionally pay the Report Noisy Maximum cost (Lemma 2: α/σ₂²).
//
// It is an in-memory calculator, safe for concurrent use; an Engine's
// spend is recorded by its S1 ledger (BatchResult.Epsilon).
type Accountant struct {
	mu   sync.Mutex
	acct dp.Accountant
}

// NewAccountant returns an empty accountant.
func NewAccountant() *Accountant { return &Accountant{} }

// RecordQuery records the SVT spend of one threshold check with deviation
// sigma1 (in votes). Call once per query, released or not.
func (a *Accountant) RecordQuery(sigma1 float64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.acct.AddSVT(sigma1)
}

// RecordRelease records the RNM spend of one label released at sigma2.
func (a *Accountant) RecordRelease(sigma2 float64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.acct.AddRNM(sigma2)
}

// Counts returns the recorded SVT (per-query) and RNM (per-release) counts.
func (a *Accountant) Counts() (queries, releases int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.acct.Counts()
}

// Epsilon converts the accumulated spend to (ε, δ)-DP, returning ε and the
// optimal Rényi order α*.
func (a *Accountant) Epsilon(delta float64) (eps, alphaStar float64, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.acct.Epsilon(delta)
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
