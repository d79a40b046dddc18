// Package dataset generates the synthetic stand-ins for MNIST, SVHN and
// CelebA (the substitution documented in DESIGN.md) and implements the
// paper's data-partition schemes: even splits and the uneven divisions 2-8,
// 3-7 and 4-6 (§VI-C: "Division 2-8 represents that 20% of the data is held
// by 80% of the users").
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/privconsensus/privconsensus/internal/ml"
)

// Spec describes a synthetic multiclass dataset: Gaussian class clusters in
// Dim dimensions with centroid separation fixed at 1 and per-class noise
// controlling difficulty.
type Spec struct {
	Name    string
	Classes int
	Dim     int
	// Noise is the within-class standard deviation; larger = harder.
	Noise float64
	// Train and Test are the number of samples generated.
	Train int
	Test  int
}

// MNISTLike mirrors MNIST's regime: 10 easy classes, 60k/10k split
// (scaled by the caller for fast runs).
func MNISTLike() Spec {
	return Spec{Name: "mnist", Classes: 10, Dim: 24, Noise: 0.22, Train: 60000, Test: 10000}
}

// SVHNLike mirrors SVHN: 10 harder classes, ~73k/26k split.
func SVHNLike() Spec {
	return Spec{Name: "svhn", Classes: 10, Dim: 24, Noise: 0.32, Train: 73000, Test: 26000}
}

// Scaled returns the spec with train/test sizes multiplied by f (at least
// one sample each), for fast experiment runs.
func (s Spec) Scaled(f float64) Spec {
	out := s
	out.Train = max(1, int(float64(s.Train)*f))
	out.Test = max(1, int(float64(s.Test)*f))
	return out
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if s.Classes < 2 || s.Dim < 1 || s.Noise <= 0 || s.Train < 1 || s.Test < 1 {
		return fmt.Errorf("dataset: invalid spec %+v", s)
	}
	return nil
}

// Generate produces the train and test sets for a multiclass spec. The
// class centroids are random unit-norm directions scaled to pairwise
// separation ~1, shared between train and test.
func Generate(rng *rand.Rand, s Spec) (train, test *ml.Dataset, err error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	centroids := make([][]float64, s.Classes)
	for c := range centroids {
		v := make([]float64, s.Dim)
		var norm float64
		for i := range v {
			v[i] = rng.NormFloat64()
			norm += v[i] * v[i]
		}
		norm = math.Sqrt(norm)
		for i := range v {
			v[i] /= norm
		}
		centroids[c] = v
	}
	sample := func(n int) *ml.Dataset {
		ds := &ml.Dataset{Classes: s.Classes, X: make([][]float64, n), Labels: make([]int, n)}
		for i := 0; i < n; i++ {
			c := rng.Intn(s.Classes)
			x := make([]float64, s.Dim)
			for j := range x {
				x[j] = centroids[c][j] + rng.NormFloat64()*s.Noise
			}
			ds.X[i] = x
			ds.Labels[i] = c
		}
		return ds
	}
	return sample(s.Train), sample(s.Test), nil
}

// AttrSpec describes the CelebA stand-in: a latent-factor model producing
// sparse binary attribute vectors.
type AttrSpec struct {
	Name  string
	Attrs int
	Dim   int
	// LatentDim is the dimensionality of the shared latent factors.
	LatentDim int
	// PositiveRate is the target marginal rate of positive attributes
	// (CelebA attributes are sparse: most are negative, §VI-C).
	PositiveRate float64
	// Noise is the observation noise on the features.
	Noise float64
	Train int
	Test  int
}

// CelebAAttrSpec returns the attribute-generator parameters for the CelebA
// stand-in.
func CelebAAttrSpec() AttrSpec {
	return AttrSpec{
		Name: "celeba", Attrs: 40, Dim: 24, LatentDim: 8,
		PositiveRate: 0.2, Noise: 0.45, Train: 160000, Test: 40000,
	}
}

// Scaled scales the attribute spec's sample counts.
func (s AttrSpec) Scaled(f float64) AttrSpec {
	out := s
	out.Train = max(1, int(float64(s.Train)*f))
	out.Test = max(1, int(float64(s.Test)*f))
	return out
}

// Validate checks the attribute spec.
func (s AttrSpec) Validate() error {
	if s.Attrs < 1 || s.Dim < 1 || s.LatentDim < 1 || s.Noise <= 0 ||
		s.PositiveRate <= 0 || s.PositiveRate >= 1 || s.Train < 1 || s.Test < 1 {
		return fmt.Errorf("dataset: invalid attribute spec %+v", s)
	}
	return nil
}

// GenerateAttrs produces multi-label train/test sets: each sample has a
// latent vector z; attribute a fires when w_a . z exceeds a bias chosen so
// the marginal positive rate matches PositiveRate; features are a linear
// map of z plus noise.
func GenerateAttrs(rng *rand.Rand, s AttrSpec) (train, test *ml.Dataset, err error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	// Attribute weight vectors over the latent space.
	attrW := make([][]float64, s.Attrs)
	for a := range attrW {
		w := make([]float64, s.LatentDim)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		attrW[a] = w
	}
	// Feature mixing matrix.
	mix := make([][]float64, s.Dim)
	for d := range mix {
		row := make([]float64, s.LatentDim)
		for i := range row {
			row[i] = rng.NormFloat64() / math.Sqrt(float64(s.LatentDim))
		}
		mix[d] = row
	}
	// The score w_a . z for z ~ N(0, I) is N(0, |w_a|^2); the bias that
	// yields P(score > bias) = PositiveRate is |w_a| * Phi^-1(1 - rate).
	quantile := normQuantile(1 - s.PositiveRate)
	bias := make([]float64, s.Attrs)
	for a, w := range attrW {
		var norm float64
		for _, wi := range w {
			norm += wi * wi
		}
		bias[a] = math.Sqrt(norm) * quantile
	}
	sample := func(n int) *ml.Dataset {
		ds := &ml.Dataset{Classes: s.Attrs, X: make([][]float64, n), Attrs: make([][]bool, n)}
		for i := 0; i < n; i++ {
			z := make([]float64, s.LatentDim)
			for j := range z {
				z[j] = rng.NormFloat64()
			}
			attrs := make([]bool, s.Attrs)
			for a := range attrs {
				var score float64
				for j := range z {
					score += attrW[a][j] * z[j]
				}
				attrs[a] = score > bias[a]
			}
			x := make([]float64, s.Dim)
			for d := range x {
				var v float64
				for j := range z {
					v += mix[d][j] * z[j]
				}
				x[d] = v + rng.NormFloat64()*s.Noise
			}
			ds.X[i] = x
			ds.Attrs[i] = attrs
		}
		return ds
	}
	return sample(s.Train), sample(s.Test), nil
}

// normQuantile approximates the standard normal quantile function using the
// Acklam rational approximation (max abs error ~1.15e-9).
func normQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		return math.NaN()
	}
	a := []float64{-39.69683028665376, 220.9460984245205, -275.9285104469687,
		138.3577518672690, -30.66479806614716, 2.506628277459239}
	b := []float64{-54.47609879822406, 161.5858368580409, -155.6989798598866,
		66.80131188771972, -13.28068155288572}
	c := []float64{-0.007784894002430293, -0.3223964580411365, -2.400758277161838,
		-2.549732539343734, 4.374664141464968, 2.938163982698783}
	d := []float64{0.007784695709041462, 0.3224671290700398, 2.445134137142996,
		3.754408661907416}
	const pLow = 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}
