package privconsensus

import (
	"fmt"

	"github.com/privconsensus/privconsensus/internal/dataset"
	"github.com/privconsensus/privconsensus/internal/ml"
	"github.com/privconsensus/privconsensus/internal/pate"
)

// PATEConfig drives one end-to-end semi-supervised knowledge-transfer
// simulation (Fig. 1 of the paper): synthetic data is generated and
// partitioned across users, teachers train locally, the aggregator labels
// its pool via the consensus mechanism (or the noisy-argmax baseline), and
// a student model trains on the labeled pairs.
type PATEConfig struct {
	// Dataset selects the synthetic generator: "mnist", "svhn" or
	// "celeba" (the multi-label attribute task).
	Dataset string
	// Scale shrinks the paper-sized sample counts ((0, 1]; 1.0 = full).
	Scale float64
	// Users is the number of teachers.
	Users int
	// Division selects the data distribution: "even", "2-8", "3-7",
	// "4-6".
	Division string
	// VoteType is "one-hot" (default) or "softmax"; it applies to the
	// multiclass task (mnist, svhn), and celeba's attribute teachers vote
	// one-hot per attribute.
	VoteType string
	// Queries is the aggregator's unlabeled pool size (paper: 9000).
	Queries int
	// UseConsensus selects the paper's mechanism; false runs the noisy
	// argmax baseline, which draws only Sigma2 noise, so its Epsilon does
	// not depend on Sigma1.
	UseConsensus bool
	// ThresholdFrac is the consensus threshold (default 0.6 if zero).
	ThresholdFrac float64
	// Sigma1, Sigma2 are the DP noise deviations in votes.
	Sigma1, Sigma2 float64
	// Seed makes the run reproducible.
	Seed int64
	// Epochs overrides the default SGD epoch count when positive.
	Epochs int
	// SelfTrain enables the semi-supervised self-training extension for
	// multiclass datasets: the student pseudo-labels rejected queries it
	// is confident about and refits, at no extra privacy cost.
	SelfTrain bool
}

// PATEResult summarizes a pipeline run.
type PATEResult struct {
	// UserAccMean is the mean teacher accuracy on held-out data.
	UserAccMean float64
	// MajorityAcc / MinorityAcc are the group means under uneven
	// divisions (zero for even splits).
	MajorityAcc, MinorityAcc float64
	// LabelAccuracy is the fraction of released labels that are correct.
	LabelAccuracy float64
	// Retention is the fraction of decisions that reached consensus (one
	// per query, or one per query and attribute for celeba).
	Retention float64
	// StudentAccuracy is the aggregator model's held-out accuracy.
	StudentAccuracy float64
	// Epsilon is the (ε, δ=1e-6) spend of the whole labeling run.
	Epsilon float64
	// Retained is the number of labeled pairs the student trained on.
	Retained int
}

// RunPATE executes the configured pipeline and returns its metrics.
func RunPATE(cfg PATEConfig) (*PATEResult, error) {
	div, err := parseDivision(cfg.Division)
	if err != nil {
		return nil, err
	}
	vt := pate.OneHot
	switch cfg.VoteType {
	case "", "one-hot", "onehot":
	case "softmax":
		vt = pate.Softmax
	default:
		return nil, fmt.Errorf("privconsensus: unknown vote type %q", cfg.VoteType)
	}
	thr := cfg.ThresholdFrac
	if thr == 0 {
		thr = 0.6
	}
	train := ml.DefaultTrainConfig()
	if cfg.Epochs > 0 {
		train.Epochs = cfg.Epochs
	}
	res, err := pate.RunPipeline(pate.PipelineConfig{
		Dataset:       cfg.Dataset,
		Scale:         cfg.Scale,
		Users:         cfg.Users,
		Division:      div,
		VoteType:      vt,
		Queries:       cfg.Queries,
		UseConsensus:  cfg.UseConsensus,
		ThresholdFrac: thr,
		Sigma1:        cfg.Sigma1,
		Sigma2:        cfg.Sigma2,
		Train:         train,
		Seed:          cfg.Seed,
		SelfTrain:     cfg.SelfTrain,
	})
	if err != nil {
		return nil, err
	}
	out := PATEResult(*res)
	return &out, nil
}

// parseDivision maps the public division names onto the internal enum.
func parseDivision(s string) (dataset.Division, error) {
	switch s {
	case "", "even":
		return dataset.DivisionEven, nil
	case "2-8":
		return dataset.Division28, nil
	case "3-7":
		return dataset.Division37, nil
	case "4-6":
		return dataset.Division46, nil
	default:
		return 0, fmt.Errorf("privconsensus: unknown division %q (want even, 2-8, 3-7 or 4-6)", s)
	}
}
