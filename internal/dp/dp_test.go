package dp

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

func testRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// theoremFiveAlpha returns the optimal RDP order from Theorem 5:
//
//	α* = 1 + sqrt(2*log(1/δ) / (9/σ1² + 2/σ2²))
func theoremFiveAlpha(sigma1, sigma2, delta float64) (float64, error) {
	if sigma1 <= 0 || sigma2 <= 0 {
		return 0, ErrBadSigma
	}
	if delta <= 0 || delta >= 1 {
		return 0, ErrBadDelta
	}
	return 1 + math.Sqrt(2*math.Log(1/delta)/(9/(sigma1*sigma1)+2/(sigma2*sigma2))), nil
}

func TestGaussianMoments(t *testing.T) {
	rng := testRNG(1)
	const n = 200000
	sigma := 3.0
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := Gaussian(rng, sigma)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("mean = %g, want ~0", mean)
	}
	if math.Abs(variance-sigma*sigma) > 0.2 {
		t.Errorf("variance = %g, want ~%g", variance, sigma*sigma)
	}
}

// The calibrated per-user noise shares must yield total check noise of
// variance sigma1^2: total = 2 * Σ_u z1^u.
func TestUserNoiseCalibration(t *testing.T) {
	rng := testRNG(3)
	const users = 50
	const trials = 20000
	sigma1 := 4.0
	perUser, err := UserNoiseSigma1(sigma1, users)
	if err != nil {
		t.Fatal(err)
	}
	var sumSq float64
	for i := 0; i < trials; i++ {
		var z float64
		for u := 0; u < users; u++ {
			z += Gaussian(rng, perUser)
		}
		total := 2 * z
		sumSq += total * total
	}
	variance := sumSq / trials
	if math.Abs(variance-sigma1*sigma1) > 0.8 {
		t.Errorf("effective check variance = %g, want ~%g", variance, sigma1*sigma1)
	}
}

func TestUserNoiseValidation(t *testing.T) {
	if _, err := UserNoiseSigma1(0, 10); err == nil {
		t.Error("expected error for sigma <= 0")
	}
	if _, err := UserNoiseSigma1(1, 0); err == nil {
		t.Error("expected error for users <= 0")
	}
}

func TestNoisyThresholdCheckExtremes(t *testing.T) {
	rng := testRNG(4)
	// Far above threshold: essentially always passes.
	pass := 0
	for i := 0; i < 1000; i++ {
		if NoisyThresholdCheck(rng, 100, 10, 1.0) {
			pass++
		}
	}
	if pass != 1000 {
		t.Errorf("far-above threshold passed %d/1000", pass)
	}
	// Far below: essentially never.
	pass = 0
	for i := 0; i < 1000; i++ {
		if NoisyThresholdCheck(rng, 10, 100, 1.0) {
			pass++
		}
	}
	if pass != 0 {
		t.Errorf("far-below threshold passed %d/1000", pass)
	}
}

func TestReportNoisyMax(t *testing.T) {
	rng := testRNG(5)
	votes := []float64{1, 2, 50, 3}
	// With tiny noise the true argmax wins essentially always.
	hits := 0
	for i := 0; i < 500; i++ {
		if ReportNoisyMax(rng, votes, 0.01) == 2 {
			hits++
		}
	}
	if hits != 500 {
		t.Errorf("argmax hit %d/500 with tiny noise", hits)
	}
	// With huge noise the winner should vary.
	seen := map[int]bool{}
	for i := 0; i < 500; i++ {
		seen[ReportNoisyMax(rng, votes, 1000)] = true
	}
	if len(seen) < 3 {
		t.Errorf("with huge noise expected varied winners, saw %d", len(seen))
	}
}

func TestCostFormulas(t *testing.T) {
	if got, want := SVTCost(2, 3), 9.0*2/(2*9); got != want {
		t.Errorf("SVTCost = %g, want %g", got, want)
	}
	if got, want := RNMCost(2, 3), 2.0/9; got != want {
		t.Errorf("RNMCost = %g, want %g", got, want)
	}
}

func TestAccountantComposition(t *testing.T) {
	acc := NewAccountant()
	if err := acc.AddSVT(2); err != nil {
		t.Fatal(err)
	}
	if err := acc.AddRNM(3); err != nil {
		t.Fatal(err)
	}
	wantCoef := 9.0/(2*4) + 1.0/9
	if math.Abs(acc.Coefficient()-wantCoef) > 1e-12 {
		t.Errorf("coefficient = %g, want %g", acc.Coefficient(), wantCoef)
	}
	svt, rnm := acc.Counts()
	if svt != 1 || rnm != 1 {
		t.Errorf("counts = %d, %d; want 1, 1", svt, rnm)
	}
	if err := acc.AddSVT(0); err == nil {
		t.Error("expected error for sigma 0")
	}
	if err := acc.AddLinear(-1); err == nil {
		t.Error("expected error for negative coefficient")
	}
}

// The accountant's closed-form conversion must match Theorem 5 for a single
// query (one SVT + one RNM).
func TestEpsilonMatchesTheoremFive(t *testing.T) {
	sigma1, sigma2, delta := 5.0, 4.0, 1e-6
	acc := NewAccountant()
	if err := acc.AddSVT(sigma1); err != nil {
		t.Fatal(err)
	}
	if err := acc.AddRNM(sigma2); err != nil {
		t.Fatal(err)
	}
	eps, alpha, err := acc.Epsilon(delta)
	if err != nil {
		t.Fatal(err)
	}
	want, err := TheoremFiveEpsilon(sigma1, sigma2, delta)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eps-want) > 1e-9 {
		t.Errorf("accountant eps = %g, Theorem 5 = %g", eps, want)
	}
	wantAlpha, err := theoremFiveAlpha(sigma1, sigma2, delta)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(alpha-wantAlpha) > 1e-9 {
		t.Errorf("accountant alpha = %g, Theorem 5 = %g", alpha, wantAlpha)
	}
}

// The closed-form optimum must actually minimize c*a + log(1/δ)/(a-1).
func TestEpsilonIsMinimum(t *testing.T) {
	acc := NewAccountant()
	if err := acc.AddSVT(3); err != nil {
		t.Fatal(err)
	}
	delta := 1e-5
	eps, alphaStar, err := acc.Epsilon(delta)
	if err != nil {
		t.Fatal(err)
	}
	c := acc.Coefficient()
	obj := func(a float64) float64 { return c*a + math.Log(1/delta)/(a-1) }
	if math.Abs(obj(alphaStar)-eps) > 1e-9 {
		t.Errorf("objective at alpha* = %g, eps = %g", obj(alphaStar), eps)
	}
	for _, a := range []float64{alphaStar * 0.5, alphaStar * 0.9, alphaStar * 1.1, alphaStar * 2} {
		if a <= 1 {
			continue
		}
		if obj(a) < eps-1e-9 {
			t.Errorf("objective at alpha=%g is %g < eps=%g: not a minimum", a, obj(a), eps)
		}
	}
}

func TestEpsilonValidation(t *testing.T) {
	acc := NewAccountant()
	if _, _, err := acc.Epsilon(0); err == nil {
		t.Error("expected error for delta = 0")
	}
	if _, _, err := acc.Epsilon(1); err == nil {
		t.Error("expected error for delta = 1")
	}
	eps, alpha, err := acc.Epsilon(1e-5)
	if err != nil || eps != 0 || !math.IsInf(alpha, 1) {
		t.Errorf("empty accountant: eps=%g alpha=%g err=%v", eps, alpha, err)
	}
}

func TestEpsilonMonotoneInQueries(t *testing.T) {
	prev := 0.0
	for q := 1; q <= 5; q++ {
		acc := NewAccountant()
		for i := 0; i < q; i++ {
			if err := acc.AddSVT(4); err != nil {
				t.Fatal(err)
			}
			if err := acc.AddRNM(4); err != nil {
				t.Fatal(err)
			}
		}
		eps, _, err := acc.Epsilon(1e-6)
		if err != nil {
			t.Fatal(err)
		}
		if eps <= prev {
			t.Errorf("epsilon not increasing: q=%d eps=%g prev=%g", q, eps, prev)
		}
		prev = eps
	}
}

func TestTheoremFiveValidation(t *testing.T) {
	if _, err := TheoremFiveEpsilon(0, 1, 1e-6); err == nil {
		t.Error("expected sigma error")
	}
	if _, err := TheoremFiveEpsilon(1, 1, 2); err == nil {
		t.Error("expected delta error")
	}
	if _, err := theoremFiveAlpha(1, 0, 1e-6); err == nil {
		t.Error("expected sigma error")
	}
	if _, err := theoremFiveAlpha(1, 1, 0); err == nil {
		t.Error("expected delta error")
	}
}

// CoefficientForEpsilon must invert the accountant's conversion exactly.
func TestCoefficientForEpsilonInverse(t *testing.T) {
	delta := 1e-6
	for _, c := range []float64{0.001, 0.05, 1.3, 10} {
		acc := NewAccountant()
		if err := acc.AddLinear(c); err != nil {
			t.Fatal(err)
		}
		eps, _, err := acc.Epsilon(delta)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CoefficientForEpsilon(eps, delta)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c)/c > 1e-9 {
			t.Errorf("CoefficientForEpsilon(%g) = %g, want %g", eps, got, c)
		}
	}
	if _, err := CoefficientForEpsilon(0, delta); err == nil {
		t.Error("expected error for epsilon 0")
	}
	if _, err := CoefficientForEpsilon(1, 0); err == nil {
		t.Error("expected error for delta 0")
	}
}

func TestSigmaForBudget(t *testing.T) {
	eps, delta := 8.19, 1e-6
	const queries = 100
	m, err := SigmaForBudget(eps, delta, queries, 1.0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Spending with the found multiplier must be within budget...
	acc := NewAccountant()
	for i := 0; i < queries; i++ {
		if err := acc.AddSVT(m); err != nil {
			t.Fatal(err)
		}
		if err := acc.AddRNM(m); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := acc.Epsilon(delta)
	if err != nil {
		t.Fatal(err)
	}
	if got > eps*1.0001 {
		t.Errorf("found multiplier %g spends ε=%g > budget %g", m, got, eps)
	}
	// ...and close to it (not wastefully noisy).
	acc2 := NewAccountant()
	for i := 0; i < queries; i++ {
		if err := acc2.AddSVT(m * 0.99); err != nil {
			t.Fatal(err)
		}
		if err := acc2.AddRNM(m * 0.99); err != nil {
			t.Fatal(err)
		}
	}
	tight, _, err := acc2.Epsilon(delta)
	if err != nil {
		t.Fatal(err)
	}
	if tight <= eps {
		t.Errorf("multiplier %g is not tight: 0.99m still within budget (ε=%g)", m, tight)
	}
}

func TestSigmaForBudgetValidation(t *testing.T) {
	if _, err := SigmaForBudget(0, 1e-6, 1, 1, 1); err == nil {
		t.Error("expected epsilon error")
	}
	if _, err := SigmaForBudget(1, 0, 1, 1, 1); err == nil {
		t.Error("expected delta error")
	}
	if _, err := SigmaForBudget(1, 1e-6, 0, 1, 1); err == nil {
		t.Error("expected queries error")
	}
	if _, err := SigmaForBudget(1, 1e-6, 1, 0, 1); err == nil {
		t.Error("expected ratio error")
	}
}

func TestAccountantJSONRoundTrip(t *testing.T) {
	a := NewAccountant()
	if err := a.AddSVT(1.5); err != nil {
		t.Fatal(err)
	}
	if err := a.AddSVT(3.0); err != nil {
		t.Fatal(err)
	}
	if err := a.AddRNM(2.0); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(a)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	restored := NewAccountant()
	if err := json.Unmarshal(b, restored); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	q, r := restored.Counts()
	if wq, wr := a.Counts(); q != wq || r != wr {
		t.Fatalf("counts %d/%d after round trip, want %d/%d", q, r, wq, wr)
	}
	for _, delta := range []float64{1e-5, 1e-9} {
		want, _, err := a.Epsilon(delta)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := restored.Epsilon(delta)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("epsilon(%g) = %g after round trip, want %g", delta, got, want)
		}
	}
}

func TestAccountantJSONRejectsHostileState(t *testing.T) {
	for name, state := range map[string]string{
		"negative-coefficient": `{"coefficient": -0.5, "svt_count": 1, "rnm_count": 0}`,
		"nan-coefficient":      `{"coefficient": "NaN", "svt_count": 1, "rnm_count": 0}`,
		"negative-svt":         `{"coefficient": 1, "svt_count": -1, "rnm_count": 0}`,
		"negative-rnm":         `{"coefficient": 1, "svt_count": 0, "rnm_count": -2}`,
		"not-json":             `coefficient=1`,
	} {
		a := NewAccountant()
		if err := json.Unmarshal([]byte(state), a); err == nil {
			t.Errorf("%s: hostile state accepted", name)
		}
	}
}
