package dataset

import (
	"math"
	"math/rand"
	"testing"

	"github.com/privconsensus/privconsensus/internal/ml"
)

func testRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestSpecsValidate(t *testing.T) {
	for _, s := range []Spec{MNISTLike(), SVHNLike()} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	if err := (Spec{Classes: 1, Dim: 2, Noise: 1, Train: 10, Test: 10}).Validate(); err == nil {
		t.Error("expected error for 1 class")
	}
	if err := CelebAAttrSpec().Validate(); err != nil {
		t.Errorf("CelebAAttrSpec: %v", err)
	}
	bad := CelebAAttrSpec()
	bad.PositiveRate = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("expected error for positive rate > 1")
	}
}

func TestScaled(t *testing.T) {
	s := MNISTLike().Scaled(0.01)
	if s.Train != 600 || s.Test != 100 {
		t.Errorf("scaled sizes %d/%d", s.Train, s.Test)
	}
	tiny := MNISTLike().Scaled(0.0000001)
	if tiny.Train < 1 || tiny.Test < 1 {
		t.Error("scaling must keep at least one sample")
	}
	a := CelebAAttrSpec().Scaled(0.01)
	if a.Train != 1600 || a.Test != 400 {
		t.Errorf("scaled attr sizes %d/%d", a.Train, a.Test)
	}
}

func TestGenerateShapes(t *testing.T) {
	rng := testRNG(1)
	spec := MNISTLike().Scaled(0.01)
	train, test, err := Generate(rng, spec)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if train.Len() != spec.Train || test.Len() != spec.Test {
		t.Errorf("sizes %d/%d, want %d/%d", train.Len(), test.Len(), spec.Train, spec.Test)
	}
	if err := train.Validate(); err != nil {
		t.Errorf("train invalid: %v", err)
	}
	if len(train.X[0]) != spec.Dim {
		t.Errorf("dim %d, want %d", len(train.X[0]), spec.Dim)
	}
	// All classes should appear.
	seen := map[int]bool{}
	for _, y := range train.Labels {
		seen[y] = true
	}
	if len(seen) != spec.Classes {
		t.Errorf("only %d/%d classes present", len(seen), spec.Classes)
	}
}

// Learnability calibration: a model on the full MNIST-like set should be
// strong, the SVHN-like set noticeably harder but still well above chance.
func TestGeneratorDifficultyOrdering(t *testing.T) {
	rng := testRNG(2)
	accOf := func(spec Spec) float64 {
		train, test, err := Generate(rng, spec.Scaled(0.05))
		if err != nil {
			t.Fatal(err)
		}
		m, err := ml.TrainSoftmax(rng, train, ml.DefaultTrainConfig())
		if err != nil {
			t.Fatal(err)
		}
		acc, err := m.Accuracy(test)
		if err != nil {
			t.Fatal(err)
		}
		return acc
	}
	mnist := accOf(MNISTLike())
	svhn := accOf(SVHNLike())
	if mnist < 0.9 {
		t.Errorf("MNIST-like full-data accuracy %g, want >= 0.9", mnist)
	}
	if svhn < 0.6 {
		t.Errorf("SVHN-like full-data accuracy %g, want >= 0.6", svhn)
	}
	if svhn >= mnist {
		t.Errorf("SVHN-like (%g) should be harder than MNIST-like (%g)", svhn, mnist)
	}
}

func TestGenerateAttrsShapesAndSparsity(t *testing.T) {
	rng := testRNG(3)
	spec := CelebAAttrSpec().Scaled(0.02)
	train, test, err := GenerateAttrs(rng, spec)
	if err != nil {
		t.Fatalf("GenerateAttrs: %v", err)
	}
	if train.Len() != spec.Train || test.Len() != spec.Test {
		t.Errorf("sizes %d/%d", train.Len(), test.Len())
	}
	if len(train.Attrs[0]) != spec.Attrs {
		t.Errorf("attr count %d, want %d", len(train.Attrs[0]), spec.Attrs)
	}
	// Positive rate should be near the target (sparse positives).
	var positives, total int
	for _, attrs := range train.Attrs {
		for _, a := range attrs {
			if a {
				positives++
			}
			total++
		}
	}
	rate := float64(positives) / float64(total)
	if math.Abs(rate-spec.PositiveRate) > 0.05 {
		t.Errorf("positive rate %g, want ~%g", rate, spec.PositiveRate)
	}
}

func TestNormQuantile(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.8413447, 1.0},
		{0.9772499, 2.0},
		{0.0227501, -2.0},
	}
	for _, c := range cases {
		got := normQuantile(c.p)
		if math.Abs(got-c.want) > 1e-4 {
			t.Errorf("normQuantile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(normQuantile(0)) || !math.IsNaN(normQuantile(1)) {
		t.Error("quantile at 0/1 should be NaN")
	}
}

func TestPartitionEven(t *testing.T) {
	rng := testRNG(4)
	train, _, err := Generate(rng, MNISTLike().Scaled(0.01))
	if err != nil {
		t.Fatal(err)
	}
	part, err := PartitionEven(rng, train, 10)
	if err != nil {
		t.Fatalf("PartitionEven: %v", err)
	}
	total := 0
	for u, ds := range part.Users {
		if ds.Len() == 0 {
			t.Errorf("user %d got no data", u)
		}
		total += ds.Len()
	}
	if total != train.Len() {
		t.Errorf("partition loses rows: %d != %d", total, train.Len())
	}
	// Shares within 1 of each other.
	minLen, maxLen := part.Users[0].Len(), part.Users[0].Len()
	for _, ds := range part.Users {
		minLen = min(minLen, ds.Len())
		maxLen = max(maxLen, ds.Len())
	}
	if maxLen-minLen > 1 {
		t.Errorf("uneven even-partition: min %d max %d", minLen, maxLen)
	}
	if _, err := PartitionEven(rng, train, 0); err == nil {
		t.Error("expected error for 0 users")
	}
	if _, err := PartitionEven(rng, train, train.Len()+1); err == nil {
		t.Error("expected error for more users than rows")
	}
}

func TestPartitionUneven(t *testing.T) {
	rng := testRNG(5)
	train, _, err := Generate(rng, MNISTLike().Scaled(0.02))
	if err != nil {
		t.Fatal(err)
	}
	for _, div := range []Division{Division28, Division37, Division46} {
		part, err := PartitionUneven(rng, train, 10, div)
		if err != nil {
			t.Fatalf("PartitionUneven(%v): %v", div, err)
		}
		total := 0
		for _, ds := range part.Users {
			total += ds.Len()
		}
		if total != train.Len() {
			t.Errorf("%v: mass not conserved: %d != %d", div, total, train.Len())
		}
		if len(part.MajorityIdx)+len(part.MinorityIdx) != 10 {
			t.Errorf("%v: group indices don't cover users", div)
		}
		// Majority users individually hold less data than minority users.
		majMax := 0
		for _, u := range part.MajorityIdx {
			majMax = max(majMax, part.Users[u].Len())
		}
		minMin := train.Len()
		for _, u := range part.MinorityIdx {
			minMin = min(minMin, part.Users[u].Len())
		}
		if majMax >= minMin {
			t.Errorf("%v: majority user holds %d rows >= minority user's %d", div, majMax, minMin)
		}
	}
	// Even passthrough.
	part, err := PartitionUneven(rng, train, 10, DivisionEven)
	if err != nil || len(part.MajorityIdx) != 0 {
		t.Errorf("even passthrough: %v, %d majority members", err, len(part.MajorityIdx))
	}
	if _, err := PartitionUneven(rng, train, 1, Division28); err == nil {
		t.Error("expected error for single user")
	}
	if _, err := PartitionUneven(rng, train, 10, Division(99)); err == nil {
		t.Error("expected error for unknown division")
	}
}

func TestDivisionFractions(t *testing.T) {
	d, u, err := Division28.fractions()
	if err != nil || d != 0.2 || u != 0.8 {
		t.Errorf("2-8 fractions = %g/%g, %v", d, u, err)
	}
	if Division37.String() != "3-7" || DivisionEven.String() != "even" {
		t.Error("division names wrong")
	}
	if Division(42).String() == "" {
		t.Error("unknown division should still render")
	}
}

func TestQuerySplit(t *testing.T) {
	rng := testRNG(6)
	train, _, err := Generate(rng, MNISTLike().Scaled(0.01))
	if err != nil {
		t.Fatal(err)
	}
	pool, rest, err := QuerySplit(rng, train, 100)
	if err != nil {
		t.Fatalf("QuerySplit: %v", err)
	}
	if pool.Len() != 100 || rest.Len() != train.Len()-100 {
		t.Errorf("split sizes %d/%d", pool.Len(), rest.Len())
	}
	if _, _, err := QuerySplit(rng, train, 0); err == nil {
		t.Error("expected error for empty pool")
	}
	if _, _, err := QuerySplit(rng, train, train.Len()); err == nil {
		t.Error("expected error for pool covering everything")
	}
}
