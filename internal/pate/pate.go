// Package pate implements the semi-supervised knowledge-transfer framework
// of Fig. 1: teachers train on private partitions, the aggregator queries
// them on an unlabeled pool, votes are aggregated under one of the paper's
// policies (the private consensus protocol or the noisy-argmax baseline),
// and a student model trains on the labeled pairs.
//
// The accuracy experiments use the plaintext-equivalent fast path of
// Alg. 4; the internal/protocol package proves the cryptographic path makes
// identical decisions for the same noise draws.
package pate

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/privconsensus/privconsensus/internal/dataset"
	"github.com/privconsensus/privconsensus/internal/dp"
	"github.com/privconsensus/privconsensus/internal/ml"
)

// VoteType selects how teachers encode their predictions (§VI-C, Fig. 4).
type VoteType int

// Supported vote encodings.
const (
	// OneHot casts a single vote for the predicted class.
	OneHot VoteType = iota + 1
	// Softmax casts the full probability vector.
	Softmax
)

// String implements fmt.Stringer.
func (v VoteType) String() string {
	switch v {
	case OneHot:
		return "one-hot"
	case Softmax:
		return "softmax"
	default:
		return fmt.Sprintf("votetype(%d)", int(v))
	}
}

// ErrNoTeachers is returned when a teacher ensemble is empty.
var ErrNoTeachers = errors.New("pate: no teachers")

// Teachers is an ensemble of locally trained multiclass models.
type Teachers struct {
	Models  []*ml.SoftmaxClassifier
	Classes int
}

// TrainTeachers fits one softmax model per user partition. Users whose
// partition is empty get a uniform-voting dummy (they own no data, as can
// happen in extreme uneven divisions).
func TrainTeachers(rng *rand.Rand, part *dataset.Partition, classes int, cfg ml.TrainConfig) (*Teachers, error) {
	if len(part.Users) == 0 {
		return nil, ErrNoTeachers
	}
	out := &Teachers{Models: make([]*ml.SoftmaxClassifier, len(part.Users)), Classes: classes}
	for u, ds := range part.Users {
		if ds.Len() == 0 {
			dim := 1
			for _, other := range part.Users {
				if other.Len() > 0 {
					dim = len(other.X[0])
					break
				}
			}
			m, err := ml.NewSoftmaxClassifier(classes, dim)
			if err != nil {
				return nil, err
			}
			out.Models[u] = m // zero weights: uniform prediction
			continue
		}
		m, err := ml.TrainSoftmax(rng, ds, cfg)
		if err != nil {
			return nil, fmt.Errorf("pate: train teacher %d: %w", u, err)
		}
		out.Models[u] = m
	}
	return out, nil
}

// Votes returns the per-user vote vectors for one query. With OneHot each
// row is an indicator vector; with Softmax it is the probability vector.
func (t *Teachers) Votes(x []float64, vt VoteType) ([][]float64, error) {
	if len(t.Models) == 0 {
		return nil, ErrNoTeachers
	}
	out := make([][]float64, len(t.Models))
	for u, m := range t.Models {
		switch vt {
		case OneHot:
			pred, err := m.Predict(x)
			if err != nil {
				return nil, fmt.Errorf("pate: teacher %d: %w", u, err)
			}
			v := make([]float64, t.Classes)
			v[pred] = 1
			out[u] = v
		case Softmax:
			p, err := m.PredictProba(x)
			if err != nil {
				return nil, fmt.Errorf("pate: teacher %d: %w", u, err)
			}
			out[u] = p
		default:
			return nil, fmt.Errorf("pate: unknown vote type %d", int(vt))
		}
	}
	return out, nil
}

// SumVotes aggregates per-user votes into the per-class total (Eq. 4).
func SumVotes(votes [][]float64) ([]float64, error) {
	if len(votes) == 0 {
		return nil, errors.New("pate: no votes")
	}
	k := len(votes[0])
	out := make([]float64, k)
	for u, v := range votes {
		if len(v) != k {
			return nil, fmt.Errorf("pate: user %d vote length %d != %d", u, len(v), k)
		}
		for i, c := range v {
			out[i] += c
		}
	}
	return out, nil
}

// Accuracies returns each teacher's accuracy on the evaluation set.
func (t *Teachers) Accuracies(test *ml.Dataset) ([]float64, error) {
	out := make([]float64, len(t.Models))
	for u, m := range t.Models {
		acc, err := m.Accuracy(test)
		if err != nil {
			return nil, fmt.Errorf("pate: evaluate teacher %d: %w", u, err)
		}
		out[u] = acc
	}
	return out, nil
}

// Labeler decides the released label for one query's aggregated votes.
// ok=false means the query is discarded.
type Labeler interface {
	Label(rng *rand.Rand, votes []float64) (label int, ok bool)
}

// ConsensusLabeler is the paper's mechanism (Alg. 4): an SVT threshold
// check on the highest vote, then Report Noisy Maximum.
type ConsensusLabeler struct {
	// Threshold is T in votes (e.g. 0.6 * users).
	Threshold float64
	Sigma1    float64
	Sigma2    float64
}

// Label implements Labeler.
func (l ConsensusLabeler) Label(rng *rand.Rand, votes []float64) (int, bool) {
	maxVotes := votes[ml.Argmax(votes)]
	if !dp.NoisyThresholdCheck(rng, maxVotes, l.Threshold, l.Sigma1) {
		return -1, false
	}
	return dp.ReportNoisyMax(rng, votes, l.Sigma2), true
}

// BaselineLabeler is the paper's comparison baseline (§VI-C): it always
// releases the noisy argmax, with no consensus check. It draws only the
// RNM noise sigma2 (the paper applies "the same differential privacy
// scheme and the same privacy level"), so its ε never depends on sigma1.
type BaselineLabeler struct {
	Sigma2 float64
}

// Label implements Labeler.
func (l BaselineLabeler) Label(rng *rand.Rand, votes []float64) (int, bool) {
	return dp.ReportNoisyMax(rng, votes, l.Sigma2), true
}

// PlainLabeler implements the non-private Alg. 1: exact argmax with an
// exact threshold check. Used for ablations and debugging.
type PlainLabeler struct {
	Threshold float64
}

// Label implements Labeler.
func (l PlainLabeler) Label(_ *rand.Rand, votes []float64) (int, bool) {
	i := ml.Argmax(votes)
	if votes[i] < l.Threshold {
		return -1, false
	}
	return i, true
}
