// Package dp implements the differential-privacy substrate of the paper:
// Gaussian noise generation (including the distributed per-user noise
// shares of §IV-D), the Rényi-DP accountant, the RDP costs of the Sparse
// Vector Technique (Lemma 1) and Report Noisy Maximum (Lemma 2), and the
// RDP → (ε, δ)-DP conversion of Theorem 5.
package dp

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Errors returned by the package.
var (
	ErrBadSigma = errors.New("dp: invalid noise deviation sigma")
	ErrBadDelta = errors.New("dp: delta must be in (0, 1)")
)

// Gaussian draws one sample from N(0, sigma^2).
func Gaussian(rng *rand.Rand, sigma float64) float64 {
	return rng.NormFloat64() * sigma
}

// UserNoiseSigma1 returns the standard deviation each user applies to its
// z1 shares so that the threshold check carries total noise N(0, sigma1^2).
//
// Alg. 5 sends +z1^u to S1 and -z1^u to S2 inside the offset shares; the
// recombined check value carries 2*Σ z1^u. With per-user deviation
// sigma1/(2*sqrt(|U|)) the total is N(0, sigma1^2) exactly (DESIGN.md,
// protocol note 3; the paper's stated sigma1^2/(2|U|) per-user variance
// would double the effective variance).
func UserNoiseSigma1(sigma1 float64, users int) (float64, error) {
	if sigma1 <= 0 {
		return 0, ErrBadSigma
	}
	if users <= 0 {
		return 0, fmt.Errorf("dp: user count must be positive, got %d", users)
	}
	return sigma1 / (2 * math.Sqrt(float64(users))), nil
}

// NoisyThresholdCheck is the plaintext reference of the Sparse Vector
// Technique instance (Alg. 4 line 1): it reports whether
// maxVotes + N(0, sigma1^2) >= threshold.
func NoisyThresholdCheck(rng *rand.Rand, maxVotes, threshold, sigma1 float64) bool {
	return maxVotes+Gaussian(rng, sigma1) >= threshold
}

// ReportNoisyMax is the plaintext reference of the Report Noisy Maximum
// instance (Alg. 4 line 2): it returns argmax_i (votes[i] + N(0, sigma2^2)).
func ReportNoisyMax(rng *rand.Rand, votes []float64, sigma2 float64) int {
	best, bestIdx := math.Inf(-1), -1
	for i, v := range votes {
		noisy := v + Gaussian(rng, sigma2)
		if noisy > best {
			best, bestIdx = noisy, i
		}
	}
	return bestIdx
}

// Spend is what one query costs: the linear RDP coefficient of its noised
// terms, the SVT (Lemma 1) and RNM (Lemma 2) invocations it counts at the
// deviations it ran at, and whether a term the mechanism uses has σ = 0.
// Such a term draws no noise, so the query is non-private (ε = +Inf)
// whatever the coefficient says.
type Spend struct {
	Sigma1, Sigma2 float64
	SVT, RNM       int
	Coefficient    float64
	NonPrivate     bool
}

// QuerySpend is the one statement of what a query costs. The consensus
// mechanism pays SVT at sigma1 on every query, 9α/(2σ1²), and RNM at
// sigma2, α/σ2², on a released label. The baseline has no threshold check:
// it pays RNM on every decision, released or not, and never uses sigma1. A
// used term at σ = 0 adds no coefficient and makes the spend NonPrivate; a
// negative or NaN σ of a used term is ErrBadSigma.
func QuerySpend(sigma1, sigma2 float64, consensus, released bool) (Spend, error) {
	s := Spend{Sigma1: sigma1, Sigma2: sigma2}
	if consensus {
		s.SVT = 1
	}
	if released || !consensus {
		s.RNM = 1
	}
	for _, t := range []struct {
		n             int
		sigma, weight float64
	}{{s.SVT, sigma1, 9.0 / 2}, {s.RNM, sigma2, 1}} {
		switch {
		case t.n == 0:
		case !(t.sigma >= 0):
			return Spend{}, ErrBadSigma
		case t.sigma == 0:
			s.NonPrivate = true
		default:
			s.Coefficient += t.weight / (t.sigma * t.sigma)
		}
	}
	return s, nil
}

// Notes returns the spend journal notes of a query of tenant's: one
// "svt sigma=<σ1> tenant=<id>" per SVT invocation and one
// "rnm sigma=<σ2> tenant=<id>" per RNM invocation. A note at sigma=0 is a
// non-private invocation: replayed through QuerySpend it gives ε = +Inf.
func (s Spend) Notes(tenant int64) []string {
	var notes []string
	for range s.SVT {
		notes = append(notes, fmt.Sprintf("svt sigma=%g tenant=%d", s.Sigma1, tenant))
	}
	for range s.RNM {
		notes = append(notes, fmt.Sprintf("rnm sigma=%g tenant=%d", s.Sigma2, tenant))
	}
	return notes
}

// Accountant composes RDP mechanisms whose cost is linear in the order
// alpha, i.e. eps(alpha) = coef * alpha — which covers every mechanism in
// the paper (Gaussian-based SVT and RNM). Composition (Theorem 2) adds
// coefficients.
type Accountant struct {
	coef float64
	// counters for reporting
	svtCount   int
	rnmCount   int
	nonPrivate int
}

// NewAccountant returns an empty accountant.
func NewAccountant() *Accountant { return &Accountant{} }

// Add records one query's spend.
func (a *Accountant) Add(s Spend) {
	a.coef += s.Coefficient
	a.svtCount += s.SVT
	a.rnmCount += s.RNM
	if s.NonPrivate {
		a.nonPrivate++
	}
}

// AddSVT records one SVT invocation with deviation sigma1 (every query
// pays this, answered or not), priced by QuerySpend: sigma1 = 0 is a
// non-private spend.
func (a *Accountant) AddSVT(sigma1 float64) error {
	return a.add(QuerySpend(sigma1, 0, true, false))
}

// AddRNM records one Report Noisy Maximum invocation with deviation sigma2
// (paid only by queries that pass the threshold check), priced by
// QuerySpend: sigma2 = 0 is a non-private spend.
func (a *Accountant) AddRNM(sigma2 float64) error {
	return a.add(QuerySpend(0, sigma2, false, true))
}

func (a *Accountant) add(s Spend, err error) error {
	if err == nil {
		a.Add(s)
	}
	return err
}

// Coefficient returns the accumulated linear RDP coefficient c with
// eps_RDP(alpha) = c * alpha.
func (a *Accountant) Coefficient() float64 { return a.coef }

// Counts returns the number of recorded SVT and RNM invocations.
func (a *Accountant) Counts() (svt, rnm int) { return a.svtCount, a.rnmCount }

// accountantState is the serialized shape of an Accountant: the linear RDP
// coefficient plus the invocation and non-private counters, which fully
// determine the privacy spend.
type accountantState struct {
	Coefficient     float64 `json:"coefficient"`
	SVTCount        int     `json:"svt_count"`
	RNMCount        int     `json:"rnm_count"`
	NonPrivateCount int     `json:"non_private_count,omitempty"`
}

// MarshalJSON serializes the accountant so its spend can be persisted
// across process restarts.
func (a *Accountant) MarshalJSON() ([]byte, error) {
	return json.Marshal(accountantState{a.coef, a.svtCount, a.rnmCount, a.nonPrivate})
}

// UnmarshalJSON restores an accountant serialized by MarshalJSON,
// rejecting states that could silently under-report spend.
func (a *Accountant) UnmarshalJSON(b []byte) error {
	var s accountantState
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	if s.Coefficient < 0 || math.IsNaN(s.Coefficient) || math.IsInf(s.Coefficient, 0) ||
		s.SVTCount < 0 || s.RNMCount < 0 || s.NonPrivateCount < 0 {
		return fmt.Errorf("dp: invalid accountant state (coefficient %g, svt %d, rnm %d, non-private %d)",
			s.Coefficient, s.SVTCount, s.RNMCount, s.NonPrivateCount)
	}
	a.coef, a.svtCount, a.rnmCount, a.nonPrivate = s.Coefficient, s.SVTCount, s.RNMCount, s.NonPrivateCount
	return nil
}

// Epsilon converts the accumulated RDP guarantee to (ε, δ)-DP using the
// standard conversion ε = min_α [c·α + log(1/δ)/(α-1)]. For linear RDP the
// optimum is closed-form: α* = 1 + sqrt(log(1/δ)/c), giving
// ε = c + 2*sqrt(c*log(1/δ)). While a non-private spend is recorded, ε is
// +Inf (α* → 1 as c → ∞).
func (a *Accountant) Epsilon(delta float64) (eps, alphaStar float64, err error) {
	if !validDelta(delta) {
		return 0, 0, ErrBadDelta
	}
	if a.nonPrivate > 0 {
		return math.Inf(1), 1, nil
	}
	if a.coef == 0 {
		return 0, math.Inf(1), nil
	}
	logInv := math.Log(1 / delta)
	alphaStar = 1 + math.Sqrt(logInv/a.coef)
	eps = a.coef + 2*math.Sqrt(a.coef*logInv)
	return eps, alphaStar, nil
}

// validDelta reports whether delta is in (0, 1); NaN is not.
func validDelta(delta float64) bool { return delta > 0 && delta < 1 }

// validEpsilon reports whether epsilon is a finite positive budget.
func validEpsilon(epsilon float64) bool { return epsilon > 0 && !math.IsInf(epsilon, 1) }

// TheoremFiveEpsilon returns the per-query (ε, δ) guarantee of Theorem 5
// for one full Alg. 5 execution (one SVT + one RNM, both noised):
//
//	ε = sqrt(2*(9/σ1² + 2/σ2²)*log(1/δ)) + (9/(2σ1²) + 1/σ2²)
func TheoremFiveEpsilon(sigma1, sigma2, delta float64) (float64, error) {
	s, err := QuerySpend(sigma1, sigma2, true, true)
	if err != nil || s.NonPrivate {
		return 0, ErrBadSigma
	}
	var acc Accountant
	acc.Add(s)
	eps, _, err := acc.Epsilon(delta)
	return eps, err
}

// CoefficientForEpsilon inverts the linear-RDP conversion: it returns the
// RDP coefficient c such that a mechanism with eps_RDP(alpha) = c*alpha
// converts to exactly (epsilon, delta)-DP. Inverse of Accountant.Epsilon:
// with s = sqrt(c), epsilon = s^2 + 2*s*sqrt(log(1/delta)), so
// s = sqrt(L + epsilon) - sqrt(L) with L = log(1/delta).
func CoefficientForEpsilon(epsilon, delta float64) (float64, error) {
	if !validEpsilon(epsilon) {
		return 0, fmt.Errorf("dp: epsilon must be finite and positive, got %g", epsilon)
	}
	if !validDelta(delta) {
		return 0, ErrBadDelta
	}
	l := math.Log(1 / delta)
	s := math.Sqrt(l+epsilon) - math.Sqrt(l)
	return s * s, nil
}

// SigmaForBudget searches for a common noise multiplier m such that running
// queries full Alg. 5 executions with sigma1 = m*ratio1, sigma2 = m*ratio2
// meets the (epsilon, delta) target. It returns the smallest such m found
// by bisection (larger m = more noise = less privacy spend).
func SigmaForBudget(epsilon, delta float64, queries int, ratio1, ratio2 float64) (float64, error) {
	if !validEpsilon(epsilon) {
		return 0, fmt.Errorf("dp: epsilon must be finite and positive, got %g", epsilon)
	}
	if !validDelta(delta) {
		return 0, ErrBadDelta
	}
	if queries <= 0 {
		return 0, fmt.Errorf("dp: query count must be positive, got %d", queries)
	}
	if !(ratio1 > 0 && ratio2 > 0) {
		return 0, ErrBadSigma
	}
	spend := func(m float64) float64 {
		acc := NewAccountant()
		for i := 0; i < queries; i++ {
			_ = acc.AddSVT(m * ratio1)
			_ = acc.AddRNM(m * ratio2)
		}
		eps, _, err := acc.Epsilon(delta)
		if err != nil {
			return math.Inf(1)
		}
		return eps
	}
	lo, hi := 1e-6, 1e6
	if spend(hi) > epsilon {
		return 0, fmt.Errorf("dp: budget ε=%g unattainable even with multiplier %g", epsilon, hi)
	}
	for i := 0; i < 200; i++ {
		mid := math.Sqrt(lo * hi) // geometric bisection over 12 decades
		if spend(mid) > epsilon {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, nil
}
