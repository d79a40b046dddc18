package pate

import (
	"fmt"
	"math/rand"

	"github.com/privconsensus/privconsensus/internal/dataset"
	"github.com/privconsensus/privconsensus/internal/ml"
)

// Attribute (CelebA-like) task: each of the 40 binary attributes is a
// separate two-class decision; consensus is checked attribute-by-attribute,
// so one query may yield labels for some attributes and be discarded for
// others (§VI-C's sparse-positive discussion).

// AttrTeachers is an ensemble of per-user attribute models.
type AttrTeachers struct {
	Models []*ml.AttributeModel
	Attrs  int
}

// zeroHead is an untrained binary head: it predicts the negative (majority)
// value everywhere.
func zeroHead(dim int) *ml.BinaryClassifier {
	return &ml.BinaryClassifier{W: make([]float64, dim+1), Dim: dim}
}

// TrainAttrTeachers fits one attribute model per user partition. Users
// whose partition is empty get all-zero heads.
func TrainAttrTeachers(rng *rand.Rand, part *dataset.Partition, attrs int, cfg ml.TrainConfig) (*AttrTeachers, error) {
	if len(part.Users) == 0 {
		return nil, ErrNoTeachers
	}
	out := &AttrTeachers{Models: make([]*ml.AttributeModel, len(part.Users)), Attrs: attrs}
	for u, ds := range part.Users {
		if ds.Len() == 0 {
			dim := 1
			for _, other := range part.Users {
				if other.Len() > 0 {
					dim = len(other.X[0])
					break
				}
			}
			heads := make([]*ml.BinaryClassifier, attrs)
			for a := range heads {
				heads[a] = zeroHead(dim)
			}
			out.Models[u] = &ml.AttributeModel{Heads: heads, Dim: dim}
			continue
		}
		m, err := ml.TrainAttributes(rng, ds, cfg)
		if err != nil {
			return nil, fmt.Errorf("pate: train attribute teacher %d: %w", u, err)
		}
		out.Models[u] = m
	}
	return out, nil
}

// Accuracies returns each teacher's mean per-attribute accuracy.
func (t *AttrTeachers) Accuracies(test *ml.Dataset) ([]float64, error) {
	out := make([]float64, len(t.Models))
	for u, m := range t.Models {
		acc, err := m.AttrAccuracy(test)
		if err != nil {
			return nil, fmt.Errorf("pate: evaluate attribute teacher %d: %w", u, err)
		}
		out[u] = acc
	}
	return out, nil
}

// totals returns, for each attribute of query x, the two-class vote totals
// [votes-for-negative, votes-for-positive].
func (t *AttrTeachers) totals(x []float64) ([][]float64, error) {
	if len(t.Models) == 0 {
		return nil, ErrNoTeachers
	}
	out := make([][]float64, t.Attrs)
	for a := range out {
		out[a] = make([]float64, 2)
	}
	for u, m := range t.Models {
		pred, err := m.PredictAttrs(x)
		if err != nil {
			return nil, fmt.Errorf("pate: attribute teacher %d: %w", u, err)
		}
		for a, p := range pred {
			if p {
				out[a][1]++
			} else {
				out[a][0]++
			}
		}
	}
	return out, nil
}

// attributes is the CelebA task: one two-class decision per attribute.
type attributes struct {
	spec dataset.AttrSpec
	*AttrTeachers
}

func (t *attributes) generate(rng *rand.Rand) (train, test *ml.Dataset, err error) {
	return dataset.GenerateAttrs(rng, t.spec)
}

func (t *attributes) decisions() int { return t.spec.Attrs }

func (t *attributes) teach(rng *rand.Rand, part *dataset.Partition, cfg ml.TrainConfig, test *ml.Dataset) ([]float64, error) {
	var err error
	if t.AttrTeachers, err = TrainAttrTeachers(rng, part, t.spec.Attrs, cfg); err != nil {
		return nil, err
	}
	return t.Accuracies(test)
}

func (t *attributes) truth(pool *ml.Dataset, row, attr int) int {
	if pool.Attrs[row][attr] {
		return 1
	}
	return 0
}

// student trains one binary head per attribute on that attribute's
// released labels; an attribute with none keeps a zero (majority negative)
// head.
func (t *attributes) student(rng *rand.Rand, pool *ml.Dataset, labels [][]int, cfg ml.TrainConfig, test *ml.Dataset) (float64, error) {
	dim := t.spec.Dim
	student := &ml.AttributeModel{Heads: make([]*ml.BinaryClassifier, t.spec.Attrs), Dim: dim}
	for a := range student.Heads {
		sub := &ml.Dataset{Classes: 1}
		for i, x := range pool.X {
			if label := labels[i][a]; label >= 0 {
				sub.X = append(sub.X, x)
				sub.Attrs = append(sub.Attrs, []bool{label == 1})
			}
		}
		if sub.Len() == 0 {
			student.Heads[a] = zeroHead(dim)
			continue
		}
		m, err := ml.TrainAttributes(rng, sub, cfg)
		if err != nil {
			return 0, fmt.Errorf("pate: train student head %d: %w", a, err)
		}
		student.Heads[a] = m.Heads[0]
	}
	return student.AttrAccuracy(test)
}
