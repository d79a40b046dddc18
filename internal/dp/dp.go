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
	ErrBadSigma = errors.New("dp: sigma must be positive")
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

// SVTCost returns the RDP cost of one Sparse Vector Technique invocation at
// order alpha (Lemma 1): 9*alpha / (2*sigma1^2).
func SVTCost(alpha, sigma1 float64) float64 {
	return 9 * alpha / (2 * sigma1 * sigma1)
}

// RNMCost returns the RDP cost of one Report Noisy Maximum invocation at
// order alpha (Lemma 2): alpha / sigma2^2.
func RNMCost(alpha, sigma2 float64) float64 {
	return alpha / (sigma2 * sigma2)
}

// Accountant composes RDP mechanisms whose cost is linear in the order
// alpha, i.e. eps(alpha) = coef * alpha — which covers every mechanism in
// the paper (Gaussian-based SVT and RNM). Composition (Theorem 2) adds
// coefficients.
type Accountant struct {
	coef float64
	// counters for reporting
	svtCount int
	rnmCount int
}

// NewAccountant returns an empty accountant.
func NewAccountant() *Accountant { return &Accountant{} }

// AddSVT records one SVT invocation with deviation sigma1 (every query
// pays this, answered or not).
func (a *Accountant) AddSVT(sigma1 float64) error {
	if sigma1 <= 0 {
		return ErrBadSigma
	}
	a.coef += 9 / (2 * sigma1 * sigma1)
	a.svtCount++
	return nil
}

// AddRNM records one Report Noisy Maximum invocation with deviation sigma2
// (paid only by queries that pass the threshold check).
func (a *Accountant) AddRNM(sigma2 float64) error {
	if sigma2 <= 0 {
		return ErrBadSigma
	}
	a.coef += 1 / (sigma2 * sigma2)
	a.rnmCount++
	return nil
}

// AddLinear records a custom mechanism with RDP eps(alpha) = coef*alpha.
func (a *Accountant) AddLinear(coef float64) error {
	if coef < 0 {
		return fmt.Errorf("dp: RDP coefficient must be non-negative, got %g", coef)
	}
	a.coef += coef
	return nil
}

// Coefficient returns the accumulated linear RDP coefficient c with
// eps_RDP(alpha) = c * alpha.
func (a *Accountant) Coefficient() float64 { return a.coef }

// Counts returns the number of recorded SVT and RNM invocations.
func (a *Accountant) Counts() (svt, rnm int) { return a.svtCount, a.rnmCount }

// accountantState is the serialized shape of an Accountant: the linear RDP
// coefficient plus the invocation counters, which fully determine the
// privacy spend.
type accountantState struct {
	Coefficient float64 `json:"coefficient"`
	SVTCount    int     `json:"svt_count"`
	RNMCount    int     `json:"rnm_count"`
}

// MarshalJSON serializes the accountant so its spend can be persisted
// across process restarts.
func (a *Accountant) MarshalJSON() ([]byte, error) {
	return json.Marshal(accountantState{Coefficient: a.coef, SVTCount: a.svtCount, RNMCount: a.rnmCount})
}

// UnmarshalJSON restores an accountant serialized by MarshalJSON,
// rejecting states that could silently under-report spend.
func (a *Accountant) UnmarshalJSON(b []byte) error {
	var s accountantState
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	if s.Coefficient < 0 || math.IsNaN(s.Coefficient) || math.IsInf(s.Coefficient, 0) ||
		s.SVTCount < 0 || s.RNMCount < 0 {
		return fmt.Errorf("dp: invalid accountant state (coefficient %g, svt %d, rnm %d)",
			s.Coefficient, s.SVTCount, s.RNMCount)
	}
	a.coef, a.svtCount, a.rnmCount = s.Coefficient, s.SVTCount, s.RNMCount
	return nil
}

// Epsilon converts the accumulated RDP guarantee to (ε, δ)-DP using the
// standard conversion ε = min_α [c·α + log(1/δ)/(α-1)]. For linear RDP the
// optimum is closed-form: α* = 1 + sqrt(log(1/δ)/c), giving
// ε = c + 2*sqrt(c*log(1/δ)).
func (a *Accountant) Epsilon(delta float64) (eps, alphaStar float64, err error) {
	if delta <= 0 || delta >= 1 {
		return 0, 0, ErrBadDelta
	}
	if a.coef == 0 {
		return 0, math.Inf(1), nil
	}
	logInv := math.Log(1 / delta)
	alphaStar = 1 + math.Sqrt(logInv/a.coef)
	eps = a.coef + 2*math.Sqrt(a.coef*logInv)
	return eps, alphaStar, nil
}

// TheoremFiveEpsilon returns the per-query (ε, δ) guarantee of Theorem 5
// for one full Alg. 5 execution (one SVT + one RNM):
//
//	ε = sqrt(2*(9/σ1² + 2/σ2²)*log(1/δ)) + (9/(2σ1²) + 1/σ2²)
func TheoremFiveEpsilon(sigma1, sigma2, delta float64) (float64, error) {
	if sigma1 <= 0 || sigma2 <= 0 {
		return 0, ErrBadSigma
	}
	if delta <= 0 || delta >= 1 {
		return 0, ErrBadDelta
	}
	c := 9/(2*sigma1*sigma1) + 1/(sigma2*sigma2)
	return math.Sqrt(2*(9/(sigma1*sigma1)+2/(sigma2*sigma2))*math.Log(1/delta)) + c, nil
}

// CoefficientForEpsilon inverts the linear-RDP conversion: it returns the
// RDP coefficient c such that a mechanism with eps_RDP(alpha) = c*alpha
// converts to exactly (epsilon, delta)-DP. Inverse of Accountant.Epsilon:
// with s = sqrt(c), epsilon = s^2 + 2*s*sqrt(log(1/delta)), so
// s = sqrt(L + epsilon) - sqrt(L) with L = log(1/delta).
func CoefficientForEpsilon(epsilon, delta float64) (float64, error) {
	if epsilon <= 0 {
		return 0, fmt.Errorf("dp: epsilon must be positive, got %g", epsilon)
	}
	if delta <= 0 || delta >= 1 {
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
	if epsilon <= 0 {
		return 0, fmt.Errorf("dp: epsilon must be positive, got %g", epsilon)
	}
	if delta <= 0 || delta >= 1 {
		return 0, ErrBadDelta
	}
	if queries <= 0 {
		return 0, fmt.Errorf("dp: query count must be positive, got %d", queries)
	}
	if ratio1 <= 0 || ratio2 <= 0 {
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
