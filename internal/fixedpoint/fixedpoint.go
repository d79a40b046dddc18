// Package fixedpoint converts float predictions to the 32-bit unsigned
// fixed-point integers required by the Paillier/DGK pipeline, following
// Eq. (8) of the paper:
//
//	R^I = R * 2^16 + 2^31,  for R in [-2^15, 2^15)
//
// i.e. 16 fractional bits, a sign offset of 2^31, and saturation at the
// range boundaries. The fractional part below 2^-16 is truncated.
package fixedpoint

import (
	"errors"
	"fmt"
	"math"
)

const (
	// FracBits is the number of fractional bits retained.
	FracBits = 16
	// Scale is 2^FracBits.
	Scale = 1 << FracBits
	// Offset is the sign offset 2^31 making encoded values non-negative.
	Offset = 1 << 31
	// MinFloat and MaxFloat bound the representable range [-2^15, 2^15).
	MinFloat = -(1 << 15)
	MaxFloat = 1 << 15
)

// ErrOutOfRange is returned by Encode for values outside [-2^15, 2^15).
var ErrOutOfRange = errors.New("fixedpoint: value out of range [-2^15, 2^15)")

// Encode converts a float in [-2^15, 2^15) to its fixed-point integer form.
func Encode(r float64) (uint64, error) {
	if math.IsNaN(r) || math.IsInf(r, 0) {
		return 0, fmt.Errorf("fixedpoint: cannot encode %v", r)
	}
	if r < MinFloat || r >= MaxFloat {
		return 0, fmt.Errorf("%w: %g", ErrOutOfRange, r)
	}
	// Truncate toward negative infinity so the decode is exact for
	// representable values and biased by < 2^-16 otherwise.
	scaled := math.Floor(r * Scale)
	return uint64(int64(scaled) + Offset), nil
}

// EncodeUnits converts a float to signed fixed-point units (R * 2^16,
// truncated) WITHOUT the 2^31 sign offset of Eq. (8). The protocol layer
// uses signed Paillier residues, which handle negative values natively;
// the paper's offset exists only because its pipeline required unsigned
// plaintexts (and must be compensated after every homomorphic sum).
func EncodeUnits(r float64) (int64, error) {
	v, err := Encode(r)
	if err != nil {
		return 0, err
	}
	return int64(v) - Offset, nil
}
