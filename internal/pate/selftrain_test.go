package pate

import (
	"math/rand"
	"testing"

	"github.com/privconsensus/privconsensus/internal/dataset"
	"github.com/privconsensus/privconsensus/internal/ml"
)

// noisyFourClass builds a moderately hard 4-class dataset.
func noisyFourClass(rng *rand.Rand, n int) *ml.Dataset {
	ds := &ml.Dataset{Classes: 4, X: make([][]float64, n), Labels: make([]int, n)}
	centers := [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {0.7, 0.7, 0}}
	for i := 0; i < n; i++ {
		c := rng.Intn(4)
		x := make([]float64, 3)
		for j := range x {
			x[j] = centers[c][j] + rng.NormFloat64()*0.5
		}
		ds.X[i] = x
		ds.Labels[i] = c
	}
	return ds
}

func TestSelfTrainConfigValidate(t *testing.T) {
	if err := DefaultSelfTrainConfig().Validate(); err != nil {
		t.Errorf("default invalid: %v", err)
	}
	if err := (SelfTrainConfig{Rounds: 0, Confidence: 0.9}).Validate(); err == nil {
		t.Error("expected rounds error")
	}
	if err := (SelfTrainConfig{Rounds: 1, Confidence: 1.5}).Validate(); err == nil {
		t.Error("expected confidence error")
	}
}

func TestSelfTrainImprovesWithUnlabeledData(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	labeled := noisyFourClass(rng, 40)
	unlabeled := noisyFourClass(rng, 800)
	unlabeled.Labels = nil // genuinely unlabeled
	test := noisyFourClass(rng, 1500)
	train := ml.TrainConfig{Epochs: 20, LearnRate: 0.3, L2: 1e-4, BatchSize: 16}

	const reps = 3
	var accPlain, accST float64
	for r := 0; r < reps; r++ {
		rr := rand.New(rand.NewSource(int64(100 + r)))
		plain, err := ml.TrainSoftmax(rr, labeled, train)
		if err != nil {
			t.Fatal(err)
		}
		ap, err := plain.Accuracy(test)
		if err != nil {
			t.Fatal(err)
		}
		rr2 := rand.New(rand.NewSource(int64(100 + r)))
		st, adopted, err := SelfTrain(rr2, labeled, unlabeled, train, DefaultSelfTrainConfig())
		if err != nil {
			t.Fatal(err)
		}
		if adopted == 0 {
			t.Log("no pseudo-labels adopted this round")
		}
		as, err := st.Accuracy(test)
		if err != nil {
			t.Fatal(err)
		}
		accPlain += ap / reps
		accST += as / reps
	}
	// Self-training should not hurt on this regime and usually helps.
	if accST < accPlain-0.02 {
		t.Errorf("self-training hurt: %g vs plain %g", accST, accPlain)
	}
}

func TestSelfTrainEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	labeled := noisyFourClass(rng, 30)
	train := ml.TrainConfig{Epochs: 5, LearnRate: 0.3, L2: 0, BatchSize: 8}

	// No unlabeled data: plain training, zero adopted.
	st, adopted, err := SelfTrain(rng, labeled, nil, train, DefaultSelfTrainConfig())
	if err != nil || st == nil || adopted != 0 {
		t.Errorf("nil unlabeled: %v, adopted=%d", err, adopted)
	}
	empty := &ml.Dataset{Classes: 4}
	if _, _, err := SelfTrain(rng, empty, nil, train, DefaultSelfTrainConfig()); err == nil {
		t.Error("expected error for empty labeled set")
	}
	bad := SelfTrainConfig{Rounds: 0, Confidence: 0.5}
	if _, _, err := SelfTrain(rng, labeled, nil, train, bad); err == nil {
		t.Error("expected config error")
	}
	// Impossible confidence: no pseudo-labels adopted.
	strict := SelfTrainConfig{Rounds: 1, Confidence: 0.999999}
	unlabeled := noisyFourClass(rng, 50)
	_, adopted, err = SelfTrain(rng, labeled, unlabeled, train, strict)
	if err != nil {
		t.Fatal(err)
	}
	if adopted > 5 {
		t.Errorf("near-1 confidence adopted %d pseudo-labels", adopted)
	}
}

func TestPipelineSelfTrainFlag(t *testing.T) {
	base := PipelineConfig{
		Dataset:       "svhn",
		Scale:         0.01,
		Users:         15,
		Division:      dataset.DivisionEven,
		VoteType:      OneHot,
		Queries:       120,
		UseConsensus:  true,
		ThresholdFrac: 0.8, // high threshold -> plenty of unlabeled leftovers
		Sigma1:        2,
		Sigma2:        2,
		Train:         fastTrain(),
		Seed:          99,
	}
	plain, err := RunPipeline(base)
	if err != nil {
		t.Fatal(err)
	}
	st := base
	st.SelfTrain = true
	stRes, err := RunPipeline(st)
	if err != nil {
		t.Fatal(err)
	}
	// Identical labeling path; only the student differs.
	if plain.Retention != stRes.Retention || plain.LabelAccuracy != stRes.LabelAccuracy {
		t.Errorf("self-training changed the labeling path: %+v vs %+v", plain, stRes)
	}
	if stRes.StudentAccuracy == 0 {
		t.Error("self-trained student missing")
	}
}
