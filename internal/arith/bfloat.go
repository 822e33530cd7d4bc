package arith

import (
	"math"

	"fpvm/internal/fpu"
)

// BFloat16System models Google's bfloat16 (one of the paper's motivating
// alternative representations): an 8-bit-mantissa, 8-bit-exponent truncated
// float32. Every operation is computed in double and rounded to the bfloat16
// lattice (round to nearest even), the semantics of mixed-precision ML
// hardware with a wide accumulator. Running a scientific binary under
// FPVM+BFloat16 answers "what would this code do on ML-accelerator
// arithmetic?" without touching the binary.
type BFloat16System struct{}

var _ System = BFloat16System{}

// Name returns "bfloat16".
func (BFloat16System) Name() string { return "bfloat16" }

// roundBF16 rounds a float64 to the nearest bfloat16-representable value
// (8 mantissa bits, float32 exponent range), ties to even.
func roundBF16(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) || v == 0 {
		return v
	}
	f32 := float32(v) // first rounding: fits the exponent range
	bits := math.Float32bits(f32)
	if math.IsInf(float64(f32), 0) {
		return float64(f32)
	}
	// Round the low 16 bits away, ties to even on bit 16.
	lower := bits & 0xFFFF
	bits &^= 0xFFFF
	if lower > 0x8000 || (lower == 0x8000 && bits&0x10000 != 0) {
		bits += 0x10000 // may carry into the exponent: correct (next binade)
	}
	return float64(math.Float32frombits(bits))
}

func bf(v Value) float64 { return v.(float64) }

// Apply computes in double and rounds once to bfloat16.
func (BFloat16System) Apply(op Op, args ...Value) Value {
	return roundBF16(Vanilla{}.Apply(op, args...).(float64))
}

// FromFloat64 promotes (i.e. rounds to the bfloat16 lattice).
func (BFloat16System) FromFloat64(v float64) Value { return roundBF16(v) }

// ToFloat64 demotes (bfloat16 values are exactly representable as doubles).
func (BFloat16System) ToFloat64(v Value) float64 { return bf(v) }

// FromInt64 converts an integer (rounding to 8 mantissa bits).
func (BFloat16System) FromInt64(i int64) Value { return roundBF16(float64(i)) }

// ToInt64 converts with the given rounding control.
func (BFloat16System) ToInt64(v Value, rc fpu.RoundingControl) (int64, bool) {
	return toInt64(bf(v), rc)
}

// Compare orders two values; NaNs are unordered.
func (BFloat16System) Compare(a, b Value) (int, bool) {
	return Vanilla{}.Compare(a, b)
}

// IsNaN reports whether v is NaN.
func (BFloat16System) IsNaN(v Value) bool { return math.IsNaN(bf(v)) }

// Format renders the value.
func (BFloat16System) Format(v Value) string { return format64(bf(v)) }

// OpCycles: bfloat16 hardware is fast; model at double cost (the emulation
// here computes in double anyway).
func (BFloat16System) OpCycles(op Op) uint64 { return Vanilla{}.OpCycles(op) }
