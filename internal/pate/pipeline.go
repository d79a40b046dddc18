package pate

import (
	"fmt"
	"math/rand"

	"github.com/privconsensus/privconsensus/internal/dataset"
	"github.com/privconsensus/privconsensus/internal/dp"
	"github.com/privconsensus/privconsensus/internal/ml"
)

// PipelineConfig drives one end-to-end knowledge-transfer run.
type PipelineConfig struct {
	// Dataset names the synthetic dataset and with it the task: "mnist"
	// and "svhn" make one K-class decision per query, "celeba" one
	// two-class decision per attribute.
	Dataset string
	// Scale shrinks the dataset's sample counts for fast runs (1.0 =
	// paper-sized).
	Scale float64
	// Users is the number of teachers.
	Users int
	// Division selects the data distribution across users.
	Division dataset.Division
	// VoteType selects one-hot or softmax teacher votes (multiclass task;
	// attribute teachers vote one-hot per attribute).
	VoteType VoteType
	// Queries is the size of the aggregator's unlabeled pool (the paper
	// sets aside 9000 training samples).
	Queries int
	// UseConsensus selects the paper's mechanism; false runs the
	// noisy-argmax baseline.
	UseConsensus bool
	// ThresholdFrac is T as a fraction of users (default 0.6).
	ThresholdFrac float64
	// Sigma1, Sigma2 are the DP noise deviations in votes.
	Sigma1, Sigma2 float64
	// Train configures teacher and student SGD.
	Train ml.TrainConfig
	// Seed makes the run reproducible.
	Seed int64
	// SelfTrain enables the semi-supervised self-training extension of the
	// multiclass task: the student pseudo-labels the discarded (unlabeled)
	// queries it is confident about and refits (DefaultSelfTrainConfig).
	// Spends no extra privacy budget.
	SelfTrain bool
}

// Validate checks the configuration.
func (c PipelineConfig) Validate() error {
	_, err := c.task()
	return err
}

// task checks the configuration and returns the task its dataset runs.
func (c PipelineConfig) task() (task, error) {
	if c.Scale <= 0 || c.Scale > 1 {
		return nil, fmt.Errorf("pate: scale %g outside (0, 1]", c.Scale)
	}
	if c.Users < 1 {
		return nil, fmt.Errorf("pate: need at least 1 user, got %d", c.Users)
	}
	if c.Queries < 1 {
		return nil, fmt.Errorf("pate: need at least 1 query, got %d", c.Queries)
	}
	if c.ThresholdFrac < 0 || c.ThresholdFrac > 1 {
		return nil, fmt.Errorf("pate: threshold fraction %g outside [0, 1]", c.ThresholdFrac)
	}
	if c.Sigma1 < 0 || c.Sigma2 < 0 {
		return nil, fmt.Errorf("pate: negative sigma")
	}
	if err := c.Train.Validate(); err != nil {
		return nil, err
	}
	switch c.Dataset {
	case "mnist", "svhn":
		if c.VoteType != OneHot && c.VoteType != Softmax {
			return nil, fmt.Errorf("pate: unknown vote type %d", int(c.VoteType))
		}
		spec := dataset.MNISTLike()
		if c.Dataset == "svhn" {
			spec = dataset.SVHNLike()
		}
		return &multiclass{spec: spec.Scaled(c.Scale), vt: c.VoteType, selfTrain: c.SelfTrain}, nil
	case "celeba":
		return &attributes{spec: dataset.CelebAAttrSpec().Scaled(c.Scale)}, nil
	default:
		return nil, fmt.Errorf("pate: unknown dataset %q (want mnist, svhn or celeba)", c.Dataset)
	}
}

// task is what a run needs from its dataset: the data, the teachers and
// their votes, the truth of a decision and the student. The pipeline asks
// the teachers decisions() separate questions per query.
type task interface {
	generate(rng *rand.Rand) (train, test *ml.Dataset, err error)
	decisions() int
	// teach trains one teacher per user and returns each one's accuracy
	// on test.
	teach(rng *rand.Rand, part *dataset.Partition, cfg ml.TrainConfig, test *ml.Dataset) ([]float64, error)
	// totals returns query x's vote totals, one vector per decision.
	totals(x []float64) ([][]float64, error)
	truth(pool *ml.Dataset, row, decision int) int
	// student trains the aggregator's model on the released labels
	// (labels[row][decision], -1 where none was released) and returns its
	// accuracy on test.
	student(rng *rand.Rand, pool *ml.Dataset, labels [][]int, cfg ml.TrainConfig, test *ml.Dataset) (float64, error)
}

// Result summarizes one pipeline run.
type Result struct {
	// UserAccMean is the mean teacher accuracy on the test set (Fig. 2a).
	UserAccMean float64
	// MajorityAcc and MinorityAcc are group means for uneven divisions
	// (Fig. 2b-d); zero for even distributions.
	MajorityAcc float64
	MinorityAcc float64
	// LabelAccuracy is the fraction of released labels that are correct
	// (Fig. 3a/3c).
	LabelAccuracy float64
	// Retention is the fraction of decisions that reached consensus
	// (Table III).
	Retention float64
	// StudentAccuracy is the aggregator model's test accuracy after
	// training on the released labels (Fig. 3b/3d).
	StudentAccuracy float64
	// Epsilon is the (ε, δ=1e-6)-DP spend of the label release.
	Epsilon float64
	// Retained is the number of released labels.
	Retained int
}

// RunPipeline executes the semi-supervised knowledge transfer flow of
// Fig. 1: generate → query split → partition → teachers → label every
// (query, decision) → student → ε.
func RunPipeline(cfg PipelineConfig) (*Result, error) {
	t, err := cfg.task()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	train, test, err := t.generate(rng)
	if err != nil {
		return nil, err
	}
	queries := min(cfg.Queries, train.Len()-cfg.Users)
	pool, userData, err := dataset.QuerySplit(rng, train, queries)
	if err != nil {
		return nil, err
	}
	part, err := dataset.PartitionUneven(rng, userData, cfg.Users, cfg.Division)
	if err != nil {
		return nil, err
	}
	accs, err := t.teach(rng, part, cfg.Train, test)
	if err != nil {
		return nil, err
	}
	res := &Result{UserAccMean: mean(accs)}
	if len(part.MajorityIdx) > 0 {
		res.MajorityAcc = meanAt(accs, part.MajorityIdx)
		res.MinorityAcc = meanAt(accs, part.MinorityIdx)
	}

	labeler := cfg.labeler()
	labels := make([][]int, pool.Len())
	correct := 0
	for i, x := range pool.X {
		totals, err := t.totals(x)
		if err != nil {
			return nil, err
		}
		labels[i] = make([]int, len(totals))
		for d, votes := range totals {
			label, ok := labeler.Label(rng, votes)
			if !ok {
				labels[i][d] = -1
				continue
			}
			labels[i][d] = label
			res.Retained++
			if label == t.truth(pool, i, d) {
				correct++
			}
		}
	}
	decisions := pool.Len() * t.decisions()
	res.Retention = float64(res.Retained) / float64(decisions)
	if res.Retained > 0 {
		res.LabelAccuracy = float64(correct) / float64(res.Retained)
	}
	if res.StudentAccuracy, err = t.student(rng, pool, labels, cfg.Train, test); err != nil {
		return nil, err
	}
	if res.Epsilon, err = cfg.epsilonSpend(decisions, res.Retained); err != nil {
		return nil, err
	}
	return res, nil
}

// labeler constructs the configured aggregation policy.
func (c PipelineConfig) labeler() Labeler {
	if c.UseConsensus {
		return ConsensusLabeler{
			Threshold: c.ThresholdFrac * float64(c.Users),
			Sigma1:    c.Sigma1,
			Sigma2:    c.Sigma2,
		}
	}
	return BaselineLabeler{Sigma2: c.Sigma2}
}

// epsilonSpend computes the (ε, δ=1e-6) privacy cost of a run that made
// the given number of decisions and released labels for some of them:
// under consensus every decision pays the SVT budget and every released
// label RNM; the baseline (no threshold) pays RNM on every decision and
// never uses sigma1. A zero sigma the mechanism uses marks a non-private
// ablation run, reported as ε = 0.
func (c PipelineConfig) epsilonSpend(decisions, released int) (float64, error) {
	if c.Sigma2 == 0 || (c.UseConsensus && c.Sigma1 == 0) {
		return 0, nil
	}
	acc := dp.NewAccountant()
	rnm := decisions
	if c.UseConsensus {
		for range decisions {
			if err := acc.AddSVT(c.Sigma1); err != nil {
				return 0, err
			}
		}
		rnm = released
	}
	for range rnm {
		if err := acc.AddRNM(c.Sigma2); err != nil {
			return 0, err
		}
	}
	eps, _, err := acc.Epsilon(1e-6)
	return eps, err
}

// multiclass is the MNIST/SVHN task: one K-class decision per query.
type multiclass struct {
	spec      dataset.Spec
	vt        VoteType
	selfTrain bool
	teachers  *Teachers
}

func (m *multiclass) generate(rng *rand.Rand) (train, test *ml.Dataset, err error) {
	return dataset.Generate(rng, m.spec)
}

func (m *multiclass) decisions() int { return 1 }

func (m *multiclass) teach(rng *rand.Rand, part *dataset.Partition, cfg ml.TrainConfig, test *ml.Dataset) ([]float64, error) {
	var err error
	if m.teachers, err = TrainTeachers(rng, part, m.spec.Classes, cfg); err != nil {
		return nil, err
	}
	return m.teachers.Accuracies(test)
}

func (m *multiclass) totals(x []float64) ([][]float64, error) {
	votes, err := m.teachers.Votes(x, m.vt)
	if err != nil {
		return nil, err
	}
	total, err := SumVotes(votes)
	if err != nil {
		return nil, err
	}
	return [][]float64{total}, nil
}

func (m *multiclass) truth(pool *ml.Dataset, row, _ int) int { return pool.Labels[row] }

// student trains a softmax model on the labeled queries, self-training on
// the discarded ones when enabled; with no labeled query there is no
// student and its accuracy is 0.
func (m *multiclass) student(rng *rand.Rand, pool *ml.Dataset, labels [][]int, cfg ml.TrainConfig, test *ml.Dataset) (float64, error) {
	labeled := &ml.Dataset{Classes: pool.Classes}
	unlabeled := &ml.Dataset{Classes: pool.Classes}
	for i, x := range pool.X {
		if label := labels[i][0]; label >= 0 {
			labeled.X = append(labeled.X, x)
			labeled.Labels = append(labeled.Labels, label)
		} else {
			unlabeled.X = append(unlabeled.X, x)
		}
	}
	if labeled.Len() == 0 {
		return 0, nil
	}
	var student *ml.SoftmaxClassifier
	var err error
	if m.selfTrain {
		student, _, err = SelfTrain(rng, labeled, unlabeled, cfg, DefaultSelfTrainConfig())
	} else {
		student, err = ml.TrainSoftmax(rng, labeled, cfg)
	}
	if err != nil {
		return 0, fmt.Errorf("pate: train student: %w", err)
	}
	return student.Accuracy(test)
}

// mean returns the arithmetic mean of xs (0 for empty input).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// meanAt returns the mean of xs at the given indices.
func meanAt(xs []float64, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	var s float64
	for _, i := range idx {
		s += xs[i]
	}
	return s / float64(len(idx))
}
