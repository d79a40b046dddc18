package protocol

import (
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/privconsensus/privconsensus/internal/dgk"
	"github.com/privconsensus/privconsensus/internal/paillier"
)

func testRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// decryptSigned decrypts each ciphertext as a signed residue.
func decryptSigned(t *testing.T, key *paillier.PrivateKey, cs []*paillier.Ciphertext) []*big.Int {
	t.Helper()
	out := make([]*big.Int, len(cs))
	for i, c := range cs {
		m, err := key.DecryptSigned(c)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = m
	}
	return out
}

// testConfig returns a small, fast configuration for protocol tests.
func testConfig(users int) Config {
	cfg := DefaultConfig(users)
	cfg.Classes = 4
	cfg.Kappa = 24
	cfg.DGK = dgk.Params{NBits: 160, TBits: 32, U: 1009, L: 50}
	return cfg
}

func TestConfigValidate(t *testing.T) {
	good := testConfig(10)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"one class", func(c *Config) { c.Classes = 1 }},
		{"zero users", func(c *Config) { c.Users = 0 }},
		{"threshold > 1", func(c *Config) { c.ThresholdFrac = 1.5 }},
		{"negative sigma", func(c *Config) { c.Sigma1 = -1 }},
		{"tiny kappa", func(c *Config) { c.Kappa = 2 }},
		{"tiny paillier", func(c *Config) { c.PaillierBits = 8 }},
		{"bad dgk", func(c *Config) { c.DGK.U = 6 }},
		{"values overflow dgk", func(c *Config) { c.DGK.L = 20 }},
		{"values overflow paillier", func(c *Config) { c.PaillierBits = 30; c.Kappa = 30 }},
	}
	for _, c := range cases {
		cfg := testConfig(10)
		c.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestThresholdUnits(t *testing.T) {
	cfg := testConfig(10)
	cfg.ThresholdFrac = 0.6
	tu := cfg.ThresholdUnits()
	// 0.6 * 10 users * 65536 = 393216, already even.
	if tu.Cmp(big.NewInt(393216)) != 0 {
		t.Errorf("ThresholdUnits = %v, want 393216", tu)
	}
	if tu.Bit(0) != 0 {
		t.Error("threshold must be even")
	}
}

func TestPerUserOffsetsSumToHalfThreshold(t *testing.T) {
	for _, users := range []int{1, 3, 7, 10, 99} {
		cfg := DefaultConfig(users)
		cfg.ThresholdFrac = 0.57 // awkward fraction to force rounding
		half := new(big.Int).Rsh(cfg.ThresholdUnits(), 1)
		sum := new(big.Int)
		for u := 0; u < users; u++ {
			off, err := cfg.PerUserOffset(u)
			if err != nil {
				t.Fatalf("PerUserOffset(%d): %v", u, err)
			}
			sum.Add(sum, off)
		}
		if sum.Cmp(half) != 0 {
			t.Errorf("users=%d: offsets sum %v != T/2 %v", users, sum, half)
		}
	}
	cfg := DefaultConfig(5)
	if _, err := cfg.PerUserOffset(5); err == nil {
		t.Error("expected range error")
	}
	if _, err := cfg.PerUserOffset(-1); err == nil {
		t.Error("expected range error")
	}
}

func oneHotVotes(classes, label int) []*big.Int {
	out := make([]*big.Int, classes)
	for i := range out {
		out[i] = big.NewInt(0)
	}
	out[label] = big.NewInt(VoteScale)
	return out
}

func TestBuildSubmissionShareIdentities(t *testing.T) {
	cfg := testConfig(3)
	cfg.Sigma1, cfg.Sigma2 = 1.5, 1.0
	keys, err := GenerateKeys(testRNG(1), cfg)
	if err != nil {
		t.Fatalf("GenerateKeys: %v", err)
	}
	rng := testRNG(2)
	noise := testRNG(3)

	votes := oneHotVotes(cfg.Classes, 2)
	sub, disc, err := BuildSubmission(rng, noise, cfg, 0, votes, keys.S1Paillier.Public(), keys.S2Paillier.Public())
	if err != nil {
		t.Fatalf("BuildSubmission: %v", err)
	}

	// Decrypt both halves and verify the share identities.
	a := decryptSigned(t, keys.S2Paillier, sub.ToS1.Votes)
	b := decryptSigned(t, keys.S1Paillier, sub.ToS2.Votes)
	for i := range votes {
		if rec := new(big.Int).Add(a[i], b[i]); rec.Cmp(votes[i]) != 0 {
			t.Errorf("vote share recombination class %d: %v != %v", i, rec, votes[i])
		}
	}

	// Threshold halves: toS1 + toS2 = votes - 0 (offsets cancel: off - off)
	// plus nothing... actually toS1+toS2 = a - off + z1 + off - b... no:
	// toS1 = a - off + z1, toS2 = off - b - z1, so toS1 + toS2 = a - b.
	// Verify instead toS1 - (-toS2) identities via the aggregate:
	// toS1 - toS2 = a + b + 2z1 - 2off = votes + 2z1 - 2off.
	ts1 := decryptSigned(t, keys.S2Paillier, sub.ToS1.Thresh)
	ts2 := decryptSigned(t, keys.S1Paillier, sub.ToS2.Thresh)
	off, err := cfg.PerUserOffset(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range votes {
		diff := new(big.Int).Sub(ts1[i], ts2[i])
		want := new(big.Int).Add(votes[i], new(big.Int).Lsh(disc.Z1[i], 1))
		want.Sub(want, new(big.Int).Lsh(off, 1))
		if diff.Cmp(want) != 0 {
			t.Errorf("threshold identity class %d: %v != %v", i, diff, want)
		}
	}

	// Noisy halves: toS1 + toS2 = votes + 2*z2.
	n1 := decryptSigned(t, keys.S2Paillier, sub.ToS1.Noisy)
	n2 := decryptSigned(t, keys.S1Paillier, sub.ToS2.Noisy)
	for i := range votes {
		sum := new(big.Int).Add(n1[i], n2[i])
		want := new(big.Int).Add(votes[i], new(big.Int).Lsh(disc.Z2[i], 1))
		if sum.Cmp(want) != 0 {
			t.Errorf("noisy identity class %d: %v != %v", i, sum, want)
		}
	}
}

func TestBuildSubmissionValidation(t *testing.T) {
	cfg := testConfig(2)
	keys, err := GenerateKeys(testRNG(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	pk1, pk2 := keys.S1Paillier.Public(), keys.S2Paillier.Public()
	rng, noise := testRNG(5), testRNG(6)

	if _, _, err := BuildSubmission(rng, noise, cfg, 0, oneHotVotes(3, 0), pk1, pk2); err == nil {
		t.Error("expected error for wrong vote length")
	}
	bad := oneHotVotes(cfg.Classes, 0)
	bad[1] = big.NewInt(-1)
	if _, _, err := BuildSubmission(rng, noise, cfg, 0, bad, pk1, pk2); err == nil {
		t.Error("expected error for negative vote")
	}
	bad[1] = big.NewInt(VoteScale + 1)
	if _, _, err := BuildSubmission(rng, noise, cfg, 0, bad, pk1, pk2); err == nil {
		t.Error("expected error for oversized vote")
	}
	if _, _, err := BuildSubmission(rng, noise, cfg, 9, oneHotVotes(cfg.Classes, 0), pk1, pk2); err == nil {
		t.Error("expected error for bad user index")
	}
}

func TestPlainOutcome(t *testing.T) {
	zeros := func(k int) []*big.Int {
		out := make([]*big.Int, k)
		for i := range out {
			out[i] = big.NewInt(0)
		}
		return out
	}
	votes := []*big.Int{big.NewInt(100), big.NewInt(400), big.NewInt(300)}

	// Threshold below max: consensus, label = argmax.
	ok, label, err := PlainOutcome(votes, zeros(3), zeros(3), big.NewInt(350))
	if err != nil || !ok || label != 1 {
		t.Errorf("PlainOutcome = %v, %d, %v; want true, 1", ok, label, err)
	}
	// Threshold above max: no consensus.
	ok, label, err = PlainOutcome(votes, zeros(3), zeros(3), big.NewInt(500))
	if err != nil || ok || label != -1 {
		t.Errorf("PlainOutcome = %v, %d, %v; want false, -1", ok, label, err)
	}
	// Noise flips the released label (z2 moves class 2 above class 1).
	z2 := []*big.Int{big.NewInt(0), big.NewInt(0), big.NewInt(60)}
	ok, label, err = PlainOutcome(votes, zeros(3), z2, big.NewInt(100))
	if err != nil || !ok || label != 2 {
		t.Errorf("PlainOutcome with z2 = %v, %d, %v; want true, 2", ok, label, err)
	}
	// Noise rescues a below-threshold check.
	z1 := []*big.Int{big.NewInt(0), big.NewInt(60), big.NewInt(0)}
	ok, _, err = PlainOutcome(votes, z1, zeros(3), big.NewInt(500))
	if err != nil || !ok {
		t.Errorf("PlainOutcome with z1 = %v, %v; want true", ok, err)
	}
	// Validation.
	if _, _, err := PlainOutcome(votes, zeros(2), zeros(3), big.NewInt(1)); err == nil {
		t.Error("expected length mismatch error")
	}
	if _, _, err := PlainOutcome(nil, nil, nil, big.NewInt(1)); err == nil {
		t.Error("expected empty input error")
	}
}

// aggregateDisclosures sums per-user plaintext disclosures: the plaintext
// reference the tests hold the secure runs to.
func aggregateDisclosures(ds []*Disclosure) (votes, z1, z2 []*big.Int, err error) {
	if len(ds) == 0 {
		return nil, nil, nil, fmt.Errorf("protocol: no disclosures")
	}
	sum := func(field func(*Disclosure) []*big.Int) []*big.Int {
		out := make([]*big.Int, len(field(ds[0])))
		for i := range out {
			out[i] = new(big.Int)
			for _, d := range ds {
				out[i].Add(out[i], field(d)[i])
			}
		}
		return out
	}
	votes = sum(func(d *Disclosure) []*big.Int { return d.Votes })
	z1 = sum(func(d *Disclosure) []*big.Int { return d.Z1 })
	z2 = sum(func(d *Disclosure) []*big.Int { return d.Z2 })
	return votes, z1, z2, nil
}

func TestAggregateDisclosures(t *testing.T) {
	d1 := &Disclosure{
		Votes: []*big.Int{big.NewInt(1), big.NewInt(2)},
		Z1:    []*big.Int{big.NewInt(3), big.NewInt(4)},
		Z2:    []*big.Int{big.NewInt(5), big.NewInt(6)},
	}
	d2 := &Disclosure{
		Votes: []*big.Int{big.NewInt(10), big.NewInt(20)},
		Z1:    []*big.Int{big.NewInt(30), big.NewInt(40)},
		Z2:    []*big.Int{big.NewInt(50), big.NewInt(60)},
	}
	votes, z1, z2, err := aggregateDisclosures([]*Disclosure{d1, d2})
	if err != nil {
		t.Fatal(err)
	}
	if votes[0].Int64() != 11 || z1[1].Int64() != 44 || z2[0].Int64() != 55 {
		t.Errorf("aggregation wrong: %v %v %v", votes, z1, z2)
	}
	if _, _, _, err := aggregateDisclosures(nil); err == nil {
		t.Error("expected error for empty input")
	}
}

func TestSubmissionBytesPositive(t *testing.T) {
	cfg := testConfig(2)
	keys, err := GenerateKeys(testRNG(7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub, _, err := BuildSubmission(testRNG(8), testRNG(9), cfg, 0,
		oneHotVotes(cfg.Classes, 1), keys.S1Paillier.Public(), keys.S2Paillier.Public())
	if err != nil {
		t.Fatal(err)
	}
	n := SubmissionBytes(sub.ToS1)
	// 3 vectors of Classes ciphertexts, each at least 5 bytes of framing.
	if n < 3*cfg.Classes*5 {
		t.Errorf("SubmissionBytes = %d, implausibly small", n)
	}
}

func TestNoiseSharesZeroSigma(t *testing.T) {
	cfg := testConfig(2)
	z, err := cfg.sampleNoiseShares(testRNG(10), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range z {
		if v.Sign() != 0 {
			t.Errorf("class %d: expected zero noise, got %v", i, v)
		}
	}
}

func TestNoiseSharesClamped(t *testing.T) {
	cfg := testConfig(2)
	cfg.Kappa = 8 // clamp at 256 units
	// Huge sigma so raw samples exceed the clamp routinely.
	z, err := cfg.sampleNoiseShares(testRNG(11), 1000)
	if err != nil {
		t.Fatal(err)
	}
	clamp := big.NewInt(256)
	for i, v := range z {
		if new(big.Int).Abs(v).Cmp(clamp) > 0 {
			t.Errorf("class %d: noise %v exceeds clamp", i, v)
		}
	}
}

// Precompute builds a view's tables on goroutines of its own; every one of
// them must have exited when it returns, on a cold view and on a warm one.
func TestPrecomputeJoinsItsGoroutines(t *testing.T) {
	cfg := testConfig(3)
	keys, err := GenerateKeys(testRNG(140), cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 2; i++ {
		keys.ForS1().Precompute()
		keys.ForS2().Precompute()
		// A joined goroutine has run its last statement but may still be
		// counted for an instant while the scheduler retires it.
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Fatalf("pass %d: %d goroutines alive after Precompute, %d before", i, after, before)
		}
	}
	// The warmed own-key path is live and agrees with the public one.
	own, err := keys.S1Paillier.Encrypt(testRNG(141), big.NewInt(9))
	if err != nil {
		t.Fatal(err)
	}
	pub, err := keys.S1Paillier.Public().Encrypt(testRNG(141), big.NewInt(9))
	if err != nil {
		t.Fatal(err)
	}
	if own.C.Cmp(pub.C) != 0 {
		t.Fatal("own-key and public encryptions differ after Precompute")
	}
}
