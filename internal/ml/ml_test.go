package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func testRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestSoftmaxProperties(t *testing.T) {
	p := Softmax([]float64{1, 2, 3})
	var sum float64
	for _, v := range p {
		if v <= 0 || v >= 1 {
			t.Errorf("probability %g outside (0,1)", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("softmax sums to %g", sum)
	}
	if !(p[2] > p[1] && p[1] > p[0]) {
		t.Errorf("softmax not order preserving: %v", p)
	}
	// Stability for huge logits.
	p = Softmax([]float64{1000, 1001})
	if math.IsNaN(p[0]) || math.IsNaN(p[1]) {
		t.Error("softmax overflowed")
	}
}

func TestSoftmaxQuick(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		logits := make([]float64, len(raw))
		for i, v := range raw {
			logits[i] = float64(v) / 8
		}
		p := Softmax(logits)
		var sum float64
		for _, v := range p {
			if v < 0 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSigmoid(t *testing.T) {
	if s := Sigmoid(0); math.Abs(s-0.5) > 1e-12 {
		t.Errorf("Sigmoid(0) = %g", s)
	}
	if s := Sigmoid(100); s <= 0.999 {
		t.Errorf("Sigmoid(100) = %g", s)
	}
	if s := Sigmoid(-100); s >= 0.001 {
		t.Errorf("Sigmoid(-100) = %g", s)
	}
	// Symmetry: sigmoid(-x) = 1 - sigmoid(x).
	for _, x := range []float64{0.5, 2, 10} {
		if math.Abs(Sigmoid(-x)-(1-Sigmoid(x))) > 1e-12 {
			t.Errorf("sigmoid asymmetric at %g", x)
		}
	}
}

func TestArgmax(t *testing.T) {
	if got := Argmax([]float64{1, 5, 3}); got != 1 {
		t.Errorf("Argmax = %d, want 1", got)
	}
	if got := Argmax([]float64{7, 7, 3}); got != 0 {
		t.Errorf("Argmax tie = %d, want 0 (lowest index)", got)
	}
}

// linearlySeparable builds a trivially separable 3-class dataset.
func linearlySeparable(rng *rand.Rand, n int) *Dataset {
	ds := &Dataset{Classes: 3, X: make([][]float64, n), Labels: make([]int, n)}
	centers := [][]float64{{3, 0}, {0, 3}, {-3, -3}}
	for i := 0; i < n; i++ {
		c := rng.Intn(3)
		ds.X[i] = []float64{centers[c][0] + rng.NormFloat64()*0.3, centers[c][1] + rng.NormFloat64()*0.3}
		ds.Labels[i] = c
	}
	return ds
}

func TestTrainSoftmaxLearnsSeparableData(t *testing.T) {
	rng := testRNG(1)
	train := linearlySeparable(rng, 300)
	test := linearlySeparable(rng, 200)
	m, err := TrainSoftmax(rng, train, DefaultTrainConfig())
	if err != nil {
		t.Fatalf("TrainSoftmax: %v", err)
	}
	acc, err := m.Accuracy(test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.97 {
		t.Errorf("accuracy %g on separable data, want >= 0.97", acc)
	}
}

func TestTrainSoftmaxValidation(t *testing.T) {
	rng := testRNG(2)
	good := linearlySeparable(rng, 10)
	if _, err := TrainSoftmax(rng, &Dataset{Classes: 3}, DefaultTrainConfig()); err == nil {
		t.Error("expected error for empty dataset")
	}
	bad := DefaultTrainConfig()
	bad.Epochs = 0
	if _, err := TrainSoftmax(rng, good, bad); err == nil {
		t.Error("expected error for bad config")
	}
	noLabels := &Dataset{Classes: 2, X: [][]float64{{1}}}
	if _, err := TrainSoftmax(rng, noLabels, DefaultTrainConfig()); err == nil {
		t.Error("expected error for missing labels")
	}
	corrupt := linearlySeparable(rng, 10)
	corrupt.Labels[0] = 99
	if _, err := TrainSoftmax(rng, corrupt, DefaultTrainConfig()); err == nil {
		t.Error("expected error for out-of-range label")
	}
}

func TestPredictProbaSumsToOne(t *testing.T) {
	rng := testRNG(3)
	m, err := TrainSoftmax(rng, linearlySeparable(rng, 100), DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.PredictProba([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range p {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %g", sum)
	}
	if _, err := m.PredictProba([]float64{1}); err == nil {
		t.Error("expected dimension error")
	}
	if _, err := m.Predict([]float64{1, 2, 3}); err == nil {
		t.Error("expected dimension error")
	}
}

func TestMoreDataHelps(t *testing.T) {
	// The load-bearing property for Fig. 2: accuracy grows with local
	// dataset size on a noisy problem.
	gen := func(rng *rand.Rand, n int) *Dataset {
		ds := &Dataset{Classes: 4, X: make([][]float64, n), Labels: make([]int, n)}
		centers := [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {0.6, 0.6, 0.6}}
		for i := 0; i < n; i++ {
			c := rng.Intn(4)
			x := make([]float64, 3)
			for j := range x {
				x[j] = centers[c][j] + rng.NormFloat64()*0.8
			}
			ds.X[i] = x
			ds.Labels[i] = c
		}
		return ds
	}
	rng := testRNG(4)
	test := gen(rng, 2000)
	accSmall, accLarge := 0.0, 0.0
	const reps = 3
	for r := 0; r < reps; r++ {
		mSmall, err := TrainSoftmax(rng, gen(rng, 12), DefaultTrainConfig())
		if err != nil {
			t.Fatal(err)
		}
		mLarge, err := TrainSoftmax(rng, gen(rng, 1200), DefaultTrainConfig())
		if err != nil {
			t.Fatal(err)
		}
		a1, err := mSmall.Accuracy(test)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := mLarge.Accuracy(test)
		if err != nil {
			t.Fatal(err)
		}
		accSmall += a1 / reps
		accLarge += a2 / reps
	}
	if accLarge <= accSmall {
		t.Errorf("more data did not help: small=%g large=%g", accSmall, accLarge)
	}
}

func TestSubset(t *testing.T) {
	rng := testRNG(5)
	ds := linearlySeparable(rng, 20)
	sub := ds.Subset([]int{0, 5, 7})
	if sub.Len() != 3 {
		t.Fatalf("subset length %d", sub.Len())
	}
	if sub.Labels[1] != ds.Labels[5] {
		t.Error("subset labels misaligned")
	}
}

func attrDataset(rng *rand.Rand, n int) *Dataset {
	// Two attributes driven by two features.
	ds := &Dataset{Classes: 2, X: make([][]float64, n), Attrs: make([][]bool, n)}
	for i := 0; i < n; i++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64()}
		ds.X[i] = x
		ds.Attrs[i] = []bool{x[0] > 0.5, x[1] < -0.2}
	}
	return ds
}

func TestTrainAttributesLearns(t *testing.T) {
	rng := testRNG(6)
	train := attrDataset(rng, 600)
	test := attrDataset(rng, 400)
	m, err := TrainAttributes(rng, train, DefaultTrainConfig())
	if err != nil {
		t.Fatalf("TrainAttributes: %v", err)
	}
	acc, err := m.AttrAccuracy(test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Errorf("attribute accuracy %g, want >= 0.9", acc)
	}
	preds, err := m.PredictAttrs(test.X[0])
	if err != nil || len(preds) != 2 {
		t.Errorf("PredictAttrs = %v, %v", preds, err)
	}
}

func TestTrainAttributesValidation(t *testing.T) {
	rng := testRNG(7)
	noAttrs := linearlySeparable(rng, 10)
	if _, err := TrainAttributes(rng, noAttrs, DefaultTrainConfig()); err == nil {
		t.Error("expected error for missing attributes")
	}
	if _, err := TrainAttributes(rng, &Dataset{Classes: 2}, DefaultTrainConfig()); err == nil {
		t.Error("expected error for empty dataset")
	}
}

func TestBinaryClassifierDimCheck(t *testing.T) {
	m := &BinaryClassifier{W: []float64{1, 2, 0}, Dim: 2}
	if _, err := m.PredictProba([]float64{1}); err == nil {
		t.Error("expected dimension error")
	}
	p, err := m.PredictProba([]float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-Sigmoid(1)) > 1e-12 {
		t.Errorf("PredictProba = %g, want %g", p, Sigmoid(1))
	}
}

func TestAccuracyEmptySet(t *testing.T) {
	m, _ := NewSoftmaxClassifier(2, 1)
	if _, err := m.Accuracy(&Dataset{Classes: 2}); err == nil {
		t.Error("expected error for empty evaluation set")
	}
	am := &AttributeModel{}
	if _, err := am.AttrAccuracy(&Dataset{Classes: 2}); err == nil {
		t.Error("expected error for empty attribute evaluation set")
	}
}

func TestNewSoftmaxClassifierValidation(t *testing.T) {
	if _, err := NewSoftmaxClassifier(1, 5); err == nil {
		t.Error("expected error for single class")
	}
	if _, err := NewSoftmaxClassifier(3, 0); err == nil {
		t.Error("expected error for zero dim")
	}
}
