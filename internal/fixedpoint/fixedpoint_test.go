package fixedpoint

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// decode converts a fixed-point integer back to its float value.
func decode(v uint64) (float64, error) {
	if v >= 1<<32 {
		return 0, fmt.Errorf("fixedpoint: encoded value %d exceeds 32 bits", v)
	}
	return float64(int64(v)-Offset) / Scale, nil
}

func TestEncodeDecodeExact(t *testing.T) {
	// Values with at most 16 fractional bits round-trip exactly.
	cases := []float64{0, 1, -1, 0.5, -0.5, 123.25, -4096.0625, 32767.99998474121, -32768}
	for _, c := range cases {
		enc, err := Encode(c)
		if err != nil {
			t.Fatalf("Encode(%g): %v", c, err)
		}
		dec, err := decode(enc)
		if err != nil {
			t.Fatalf("decode(%d): %v", enc, err)
		}
		if dec != c {
			t.Errorf("round trip %g -> %d -> %g", c, enc, dec)
		}
	}
}

func TestEncodeRange(t *testing.T) {
	if _, err := Encode(32768); err == nil {
		t.Error("expected error at upper bound")
	}
	if _, err := Encode(-32769); err == nil {
		t.Error("expected error below lower bound")
	}
	if _, err := Encode(math.NaN()); err == nil {
		t.Error("expected error for NaN")
	}
	if _, err := Encode(math.Inf(1)); err == nil {
		t.Error("expected error for +Inf")
	}
	if _, err := Encode(-32768); err != nil {
		t.Errorf("lower bound should be encodable: %v", err)
	}
}

func TestEncodeZeroIsOffset(t *testing.T) {
	enc, err := Encode(0)
	if err != nil {
		t.Fatal(err)
	}
	if enc != Offset {
		t.Fatalf("Encode(0) = %d, want %d", enc, uint64(Offset))
	}
}

func TestDecodeRejectsOversize(t *testing.T) {
	if _, err := decode(1 << 33); err == nil {
		t.Error("expected error for > 32-bit encoded value")
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(raw int32) bool {
		// Map raw int32 into the representable range with 16 fractional bits.
		r := float64(raw) / Scale / 2 // within (-2^15, 2^15)
		enc, err := Encode(r)
		if err != nil {
			return false
		}
		dec, err := decode(enc)
		if err != nil {
			return false
		}
		return math.Abs(dec-r) < 1.0/Scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMonotoneQuick(t *testing.T) {
	f := func(a, b int16) bool {
		fa, fb := float64(a)/4, float64(b)/4
		ea, err1 := Encode(fa)
		eb, err2 := Encode(fb)
		if err1 != nil || err2 != nil {
			return false
		}
		if fa < fb {
			return ea < eb
		}
		if fa > fb {
			return ea > eb
		}
		return ea == eb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeUnits(t *testing.T) {
	cases := []struct {
		in   float64
		want int64
	}{
		{0, 0},
		{1, Scale},
		{0.5, Scale / 2},
		{-1, -Scale},
		{-0.25, -Scale / 4},
	}
	for _, c := range cases {
		got, err := EncodeUnits(c.in)
		if err != nil {
			t.Fatalf("EncodeUnits(%g): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("EncodeUnits(%g) = %d, want %d", c.in, got, c.want)
		}
		if back := float64(got) / Scale; back != c.in {
			t.Errorf("units %d scale back to %g, want %g", got, back, c.in)
		}
	}
	if _, err := EncodeUnits(1e9); err == nil {
		t.Error("expected range error")
	}
}

func TestEncodeUnitsMatchesPaperEncoding(t *testing.T) {
	// EncodeUnits must be exactly the paper's Eq. (8) minus the 2^31
	// offset for every representable value.
	for _, r := range []float64{0, 0.125, -3.5, 100.0625, -32768} {
		paper, err := Encode(r)
		if err != nil {
			t.Fatal(err)
		}
		units, err := EncodeUnits(r)
		if err != nil {
			t.Fatal(err)
		}
		if units != int64(paper)-Offset {
			t.Errorf("EncodeUnits(%g) = %d, paper form gives %d", r, units, int64(paper)-Offset)
		}
	}
}
