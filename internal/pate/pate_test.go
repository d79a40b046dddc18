package pate

import (
	"math"
	"math/rand"
	"testing"

	"github.com/privconsensus/privconsensus/internal/dataset"
	"github.com/privconsensus/privconsensus/internal/ml"
)

func testRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// fastTrain returns a quick training config for tests.
func fastTrain() ml.TrainConfig {
	return ml.TrainConfig{Epochs: 10, LearnRate: 0.3, L2: 1e-4, BatchSize: 16}
}

// smallPartition builds a small even partition of an MNIST-like dataset.
func smallPartition(t *testing.T, rng *rand.Rand, users int) (*dataset.Partition, *ml.Dataset) {
	t.Helper()
	train, test, err := dataset.Generate(rng, dataset.MNISTLike().Scaled(0.02))
	if err != nil {
		t.Fatal(err)
	}
	part, err := dataset.PartitionEven(rng, train, users)
	if err != nil {
		t.Fatal(err)
	}
	return part, test
}

func TestTrainTeachersAndVotes(t *testing.T) {
	rng := testRNG(1)
	part, test := smallPartition(t, rng, 5)
	teachers, err := TrainTeachers(rng, part, 10, fastTrain())
	if err != nil {
		t.Fatalf("TrainTeachers: %v", err)
	}
	if len(teachers.Models) != 5 {
		t.Fatalf("expected 5 teachers, got %d", len(teachers.Models))
	}

	accs, err := teachers.Accuracies(test)
	if err != nil {
		t.Fatal(err)
	}
	if mean(accs) < 0.5 {
		t.Errorf("mean teacher accuracy %g suspiciously low", mean(accs))
	}

	x := test.X[0]
	oneHot, err := teachers.Votes(x, OneHot)
	if err != nil {
		t.Fatal(err)
	}
	for u, v := range oneHot {
		var sum float64
		ones := 0
		for _, c := range v {
			sum += c
			if c == 1 {
				ones++
			}
		}
		if sum != 1 || ones != 1 {
			t.Errorf("user %d one-hot vote invalid: %v", u, v)
		}
	}
	soft, err := teachers.Votes(x, Softmax)
	if err != nil {
		t.Fatal(err)
	}
	for u, v := range soft {
		var sum float64
		for _, c := range v {
			sum += c
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("user %d softmax vote sums to %g", u, sum)
		}
	}
	if _, err := teachers.Votes(x, VoteType(9)); err == nil {
		t.Error("expected error for unknown vote type")
	}
}

func TestTrainTeachersEmptyPartitionUser(t *testing.T) {
	rng := testRNG(2)
	part, test := smallPartition(t, rng, 3)
	part.Users[1] = &ml.Dataset{Classes: 10} // simulate a data-less user
	teachers, err := TrainTeachers(rng, part, 10, fastTrain())
	if err != nil {
		t.Fatalf("TrainTeachers with empty user: %v", err)
	}
	// The dummy teacher predicts uniformly; voting still works.
	if _, err := teachers.Votes(test.X[0], OneHot); err != nil {
		t.Fatalf("Votes: %v", err)
	}
	if _, err := TrainTeachers(rng, &dataset.Partition{}, 10, fastTrain()); err == nil {
		t.Error("expected error for empty partition")
	}
}

func TestSumVotes(t *testing.T) {
	total, err := SumVotes([][]float64{{1, 0}, {0, 1}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if total[0] != 2 || total[1] != 1 {
		t.Errorf("SumVotes = %v", total)
	}
	if _, err := SumVotes(nil); err == nil {
		t.Error("expected error for no votes")
	}
	if _, err := SumVotes([][]float64{{1}, {1, 2}}); err == nil {
		t.Error("expected error for ragged votes")
	}
}

func TestConsensusLabeler(t *testing.T) {
	rng := testRNG(3)
	l := ConsensusLabeler{Threshold: 6, Sigma1: 0.01, Sigma2: 0.01}
	// 8 of 10 votes on class 1: passes threshold 6.
	label, ok := l.Label(rng, []float64{2, 8, 0})
	if !ok || label != 1 {
		t.Errorf("Label = %d, %v; want 1, true", label, ok)
	}
	// 4 votes max < 6: rejected (noise is tiny).
	if _, ok := l.Label(rng, []float64{4, 3, 3}); ok {
		t.Error("expected rejection below threshold")
	}
}

func TestBaselineLabelerAlwaysReleases(t *testing.T) {
	rng := testRNG(4)
	l := BaselineLabeler{Sigma2: 0.01}
	for i := 0; i < 10; i++ {
		label, ok := l.Label(rng, []float64{1, 2, 30})
		if !ok || label != 2 {
			t.Errorf("baseline Label = %d, %v", label, ok)
		}
	}
}

func TestPlainLabeler(t *testing.T) {
	l := PlainLabeler{Threshold: 5}
	label, ok := l.Label(nil, []float64{1, 7})
	if !ok || label != 1 {
		t.Errorf("plain Label = %d, %v", label, ok)
	}
	if _, ok := l.Label(nil, []float64{1, 4}); ok {
		t.Error("expected rejection")
	}
}

func TestRunPipelineConsensusBeatsBaselineOnLabelAccuracy(t *testing.T) {
	base := PipelineConfig{
		Dataset:       "svhn",
		Scale:         0.01,
		Users:         20,
		Division:      dataset.DivisionEven,
		VoteType:      OneHot,
		Queries:       150,
		ThresholdFrac: 0.6,
		Sigma1:        3,
		Sigma2:        3,
		Train:         fastTrain(),
		Seed:          42,
	}
	cons := base
	cons.UseConsensus = true
	rCons, err := RunPipeline(cons)
	if err != nil {
		t.Fatalf("consensus pipeline: %v", err)
	}
	rBase, err := RunPipeline(base)
	if err != nil {
		t.Fatalf("baseline pipeline: %v", err)
	}
	if rCons.Retention >= 1.0 && rBase.Retention != 1.0 {
		t.Errorf("retention bookkeeping wrong: cons=%g base=%g", rCons.Retention, rBase.Retention)
	}
	if rBase.Retention != 1.0 {
		t.Errorf("baseline must retain everything, got %g", rBase.Retention)
	}
	// The headline claim: consensus filtering yields better label quality
	// under the same noise.
	if rCons.LabelAccuracy <= rBase.LabelAccuracy {
		t.Errorf("consensus label accuracy %g <= baseline %g", rCons.LabelAccuracy, rBase.LabelAccuracy)
	}
	if rCons.Retained == 0 || rCons.StudentAccuracy == 0 {
		t.Errorf("consensus run produced no student: %+v", rCons)
	}
}

func TestRunPipelineUnevenGroupsReported(t *testing.T) {
	cfg := PipelineConfig{
		Dataset:       "mnist",
		Scale:         0.01,
		Users:         10,
		Division:      dataset.Division28,
		VoteType:      OneHot,
		Queries:       50,
		UseConsensus:  true,
		ThresholdFrac: 0.5,
		Sigma1:        2,
		Sigma2:        2,
		Train:         fastTrain(),
		Seed:          7,
	}
	r, err := RunPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.MajorityAcc == 0 || r.MinorityAcc == 0 {
		t.Errorf("group accuracies not reported: %+v", r)
	}
	// Minority users hold most of the data, so they should be stronger.
	if r.MinorityAcc <= r.MajorityAcc {
		t.Errorf("minority acc %g should exceed majority acc %g", r.MinorityAcc, r.MajorityAcc)
	}
	if r.Epsilon <= 0 {
		t.Errorf("epsilon not computed: %+v", r)
	}
}

func TestRunPipelineValidation(t *testing.T) {
	good := PipelineConfig{
		Dataset: "mnist", Scale: 0.01, Users: 5, Division: dataset.DivisionEven,
		VoteType: OneHot, Queries: 10, ThresholdFrac: 0.5, Sigma1: 1, Sigma2: 1,
		Train: fastTrain(), Seed: 1,
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	cases := []func(*PipelineConfig){
		func(c *PipelineConfig) { c.Scale = 0 },
		func(c *PipelineConfig) { c.Scale = 2 },
		func(c *PipelineConfig) { c.Users = 0 },
		func(c *PipelineConfig) { c.Queries = 0 },
		func(c *PipelineConfig) { c.ThresholdFrac = -0.1 },
		func(c *PipelineConfig) { c.Sigma1 = -1 },
		func(c *PipelineConfig) { c.VoteType = 0 },
		func(c *PipelineConfig) { c.Train.Epochs = 0 },
		func(c *PipelineConfig) { c.Dataset = "bogus" },
	}
	for i, mutate := range cases {
		cfg := good
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestRunAttrPipelineValidation(t *testing.T) {
	// The attribute task takes no vote type: that belongs to the
	// multiclass task only.
	good := PipelineConfig{
		Dataset: "celeba", Scale: 0.01, Users: 5, Division: dataset.DivisionEven,
		Queries: 10, ThresholdFrac: 0.5, Sigma1: 1, Sigma2: 1,
		Train: fastTrain(), Seed: 1,
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("attribute config rejected: %v", err)
	}
	bad := good
	bad.Scale = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected error for zero scale")
	}
	bad = good
	bad.Users = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected error for zero users")
	}
}

func TestEpsilonSpendAccounting(t *testing.T) {
	cfg := PipelineConfig{Sigma1: 4, Sigma2: 4, UseConsensus: true}
	eps1, err := cfg.epsilonSpend(100, 50)
	if err != nil {
		t.Fatal(err)
	}
	eps2, err := cfg.epsilonSpend(100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if eps2 <= eps1 {
		t.Errorf("more releases must cost more: %g vs %g", eps1, eps2)
	}
	zero := PipelineConfig{Sigma1: 0, Sigma2: 0}
	eps, err := zero.epsilonSpend(10, 10)
	if err != nil || eps != 0 {
		t.Errorf("non-private run should report eps=0, got %g, %v", eps, err)
	}
}

func TestRunPipelineAttributes(t *testing.T) {
	cfg := PipelineConfig{
		Dataset:       "celeba",
		Scale:         0.004,
		Users:         10,
		Division:      dataset.DivisionEven,
		Queries:       40,
		UseConsensus:  true,
		ThresholdFrac: 0.6,
		Sigma1:        1.5,
		Sigma2:        1.5,
		Train:         ml.TrainConfig{Epochs: 5, LearnRate: 0.3, L2: 1e-4, BatchSize: 16},
		Seed:          9,
	}
	r, err := RunPipeline(cfg)
	if err != nil {
		t.Fatalf("RunPipeline: %v", err)
	}
	if r.UserAccMean < 0.6 {
		t.Errorf("attribute teachers too weak: %g", r.UserAccMean)
	}
	if r.Retention <= 0 || r.Retention > 1 {
		t.Errorf("retention %g outside (0, 1]", r.Retention)
	}
	if r.LabelAccuracy <= 0.5 {
		t.Errorf("label accuracy %g not better than chance", r.LabelAccuracy)
	}
	if r.StudentAccuracy <= 0.5 {
		t.Errorf("student accuracy %g not better than chance", r.StudentAccuracy)
	}
	// Every (query, attribute) pair is one decision: 40 queries of 40
	// attributes.
	if want := int(math.Round(r.Retention * 40 * 40)); r.Retained != want {
		t.Errorf("retained %d pairs, retention implies %d", r.Retained, want)
	}
	want, err := cfg.epsilonSpend(40*40, r.Retained)
	if err != nil || r.Epsilon <= 0 || r.Epsilon != want {
		t.Errorf("epsilon %g, want %g over 1600 decisions (%v)", r.Epsilon, want, err)
	}
}

func TestMeanHelpers(t *testing.T) {
	if mean(nil) != 0 {
		t.Error("mean of empty should be 0")
	}
	if mean([]float64{1, 2, 3}) != 2 {
		t.Error("mean wrong")
	}
	if meanAt([]float64{1, 2, 3}, []int{0, 2}) != 2 {
		t.Error("meanAt wrong")
	}
	if meanAt([]float64{1}, nil) != 0 {
		t.Error("meanAt of empty should be 0")
	}
}

func TestVoteTypeString(t *testing.T) {
	if OneHot.String() != "one-hot" || Softmax.String() != "softmax" {
		t.Error("vote type names wrong")
	}
	if VoteType(42).String() == "" {
		t.Error("unknown vote type should still render")
	}
}

func TestTrainAttrTeachersEmptyUser(t *testing.T) {
	rng := testRNG(55)
	train, test, err := dataset.GenerateAttrs(rng, dataset.CelebAAttrSpec().Scaled(0.001))
	if err != nil {
		t.Fatal(err)
	}
	part, err := dataset.PartitionEven(rng, train, 2)
	if err != nil {
		t.Fatal(err)
	}
	part.Users[1] = &ml.Dataset{Classes: 40} // data-less user
	teachers, err := TrainAttrTeachers(rng, part, 40, fastTrain())
	if err != nil {
		t.Fatalf("TrainAttrTeachers with empty user: %v", err)
	}
	totals, err := teachers.totals(test.X[0])
	if err != nil {
		t.Fatalf("totals: %v", err)
	}
	for a, v := range totals {
		if len(v) != 2 || v[0]+v[1] != 2 {
			t.Fatalf("attribute %d totals %v, want two votes over two classes", a, v)
		}
	}
	if _, err := TrainAttrTeachers(rng, &dataset.Partition{}, 40, fastTrain()); err == nil {
		t.Error("expected error for empty partition")
	}
}
