// Package ml is the machine-learning substrate standing in for the paper's
// PyTorch stack: dense linear algebra, multinomial (softmax) and binary
// logistic classifiers trained with minibatch SGD, and evaluation metrics.
//
// The substitution rationale (DESIGN.md): every effect the paper evaluates
// is a function of the vote statistics of locally trained models — accuracy
// as a function of local data size, inter-user agreement, attribute
// sparsity — all of which logistic models on controllable synthetic data
// reproduce.
package ml

import (
	"errors"
	"math"
)

// ErrDimensionMismatch is returned when vector/matrix shapes disagree.
var ErrDimensionMismatch = errors.New("ml: dimension mismatch")

// Softmax returns the softmax of logits, computed stably.
func Softmax(logits []float64) []float64 {
	out := make([]float64, len(logits))
	maxv := math.Inf(-1)
	for _, v := range logits {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range logits {
		out[i] = math.Exp(v - maxv)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// Sigmoid returns 1/(1+e^-x).
func Sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// Argmax returns the index of the largest element (lowest index on ties).
func Argmax(xs []float64) int {
	best := 0
	for i := 1; i < len(xs); i++ {
		if xs[i] > xs[best] {
			best = i
		}
	}
	return best
}
