package mpfr

import (
	"math"

	"fpvm/internal/mpnat"
)

// SetFloat64 sets z to v rounded to z's precision; returns the ternary value.
func (z *Float) SetFloat64(v float64, rnd RoundingMode) int {
	bits := math.Float64bits(v)
	neg := bits>>63 == 1
	biased := int64(bits >> 52 & 0x7FF)
	frac := bits & (1<<52 - 1)
	switch {
	case biased == 0x7FF && frac != 0:
		z.setNaN()
		return 0
	case biased == 0x7FF:
		z.setInf(neg)
		return 0
	case biased == 0 && frac == 0:
		z.setZero(neg)
		return 0
	case biased == 0:
		// Subnormal: value = frac * 2^-1074.
		return z.setRounded(neg, mpnat.Nat{frac}, -1074, false, rnd)
	}
	// Normal: value = (2^52 + frac) * 2^(biased - 1075).
	return z.setRounded(neg, mpnat.Nat{1<<52 | frac}, biased-1075, false, rnd)
}

// Float64 returns x converted to float64 with the given rounding mode,
// handling overflow to ±Inf and gradual underflow to subnormals and zero
// exactly as IEEE 754 binary64 does.
func (x *Float) Float64(rnd RoundingMode) float64 {
	switch x.form {
	case nan:
		return math.NaN()
	case inf:
		return math.Inf(sign1(x.neg))
	case zero:
		if x.neg {
			return math.Copysign(0, -1)
		}
		return 0
	}

	// Round to the effective binary64 precision at x's magnitude.
	effPrec := 53
	if x.exp <= -1021 {
		effPrec = int(x.exp) + 1074 // subnormal: fewer significant bits
		if effPrec < 1 {
			// Below half the smallest subnormal (or at most equal):
			// round to zero or the minimum subnormal.
			return x.tinyFloat64(rnd)
		}
	}
	t := New(uint(effPrec))
	t.Set(x, rnd)
	if t.form == zero {
		return math.Copysign(0, float64(sign1(x.neg)))
	}
	exp, mant := t.exp, t.mant

	if exp > 1024 {
		return overflowFloat64(x.neg, rnd)
	}
	if exp >= -1021 {
		// Normal number: need exactly 53 mantissa bits.
		m53 := mpnat.Shl(mant, uint(53-mant.BitLen()))
		lo, _ := m53.Uint64()
		if mant.BitLen() > 53 {
			panic("mpfr: internal: mantissa wider than 53 bits")
		}
		biased := uint64(exp-1) + 1023
		bits := uint64(0)
		if t.neg {
			bits = 1 << 63
		}
		bits |= biased << 52
		bits |= lo & (1<<52 - 1)
		return math.Float64frombits(bits)
	}
	// Subnormal: value = f * 2^-1074 with f = mant aligned to unit 2^-1074.
	shift := t.unitExp() + 1074
	var f uint64
	if shift >= 0 {
		fm := mpnat.Shl(mant, uint(shift))
		f, _ = fm.Uint64()
	} else {
		fm := mpnat.Shr(mant, uint(-shift))
		f, _ = fm.Uint64()
	}
	if f >= 1<<52 {
		// Rounding bumped it into the normal range (2^-1022).
		bits := uint64(1) << 52
		if t.neg {
			bits |= 1 << 63
		}
		return math.Float64frombits(bits)
	}
	bits := f
	if t.neg {
		bits |= 1 << 63
	}
	return math.Float64frombits(bits)
}

// tinyFloat64 handles |x| at or below half the smallest subnormal.
func (x *Float) tinyFloat64(rnd RoundingMode) float64 {
	minSub := math.Float64frombits(1) // 2^-1074
	up := false
	switch rnd {
	case RoundTowardPositive:
		up = !x.neg
	case RoundTowardNegative:
		up = x.neg
	case RoundNearestEven, RoundNearestAway:
		// Ties: |x| must exceed 2^-1075 to round to the min subnormal.
		// |x| == 2^-1075 exactly ties to even → 0 (RNE) or away (RNA).
		half := New(2)
		half.form = finite
		half.neg = false
		half.mant = mpnat.Shl(mpnat.Nat{1}, 1)
		half.exp = -1074 // value 2^-1075
		c := x.cmpAbs(half)
		up = c > 0 || (c == 0 && rnd == RoundNearestAway)
	}
	if !up {
		return math.Copysign(0, float64(sign1(x.neg)))
	}
	return math.Copysign(minSub, float64(sign1(x.neg)))
}

func overflowFloat64(neg bool, rnd RoundingMode) float64 {
	switch rnd {
	case RoundTowardZero:
		return math.Copysign(math.MaxFloat64, float64(sign1(neg)))
	case RoundTowardPositive:
		if neg {
			return -math.MaxFloat64
		}
		return math.Inf(1)
	case RoundTowardNegative:
		if neg {
			return math.Inf(-1)
		}
		return math.MaxFloat64
	default:
		return math.Inf(sign1(neg))
	}
}

func sign1(neg bool) int {
	if neg {
		return -1
	}
	return 1
}

// Int64 returns x rounded to an integer with mode rnd. ok is false when x is
// NaN, infinite, or out of int64 range (x64's cvtsd2si "integer indefinite"
// cases); the returned value is then math.MinInt64, matching the hardware.
func (x *Float) Int64(rnd RoundingMode) (v int64, ok bool) {
	if x.form == nan || x.form == inf {
		return math.MinInt64, false
	}
	if x.form == zero {
		return 0, true
	}
	if x.exp > 64 {
		// |x| >= 2^64; shifting the mantissa up to the units below would
		// allocate exp bits.
		return math.MinInt64, false
	}
	r := New(uint(x.effPrec()) + 2)
	r.rint(x, rnd)
	if r.form == zero {
		return 0, true
	}
	// r = mant * 2^unitExp with unitExp >= 0 for integers.
	ue := r.unitExp()
	m := r.mant
	if ue > 0 {
		m = mpnat.Shl(m, uint(ue))
	} else if ue < 0 {
		m = mpnat.Shr(m, uint(-ue))
	}
	u, fits := m.Uint64()
	if !fits {
		return math.MinInt64, false
	}
	if r.neg {
		if u > 1<<63 {
			return math.MinInt64, false
		}
		return -int64(u-1) - 1, true
	}
	if u >= 1<<63 {
		return math.MinInt64, false
	}
	return int64(u), true
}

// rint sets z to x rounded to an integral value using mode rnd.
func (z *Float) rint(x *Float, rnd RoundingMode) int {
	switch x.form {
	case nan:
		z.setNaN()
		return 0
	case inf:
		z.setInf(x.neg)
		return 0
	case zero:
		z.setZero(x.neg)
		return 0
	}
	ue := x.unitExp()
	if ue >= 0 {
		return z.Set(x, rnd) // already an integer
	}
	if x.exp <= 0 {
		// |x| < 1: rounds to 0 or ±1.
		up := false
		switch rnd {
		case RoundTowardPositive:
			up = !x.neg
		case RoundTowardNegative:
			up = x.neg
		case RoundNearestEven:
			// Round up only if |x| > 1/2 (the 1/2 tie goes to even, 0).
			up = x.exp == 0 && !isPow2Mant(x.mant)
		case RoundNearestAway:
			up = x.exp == 0 // |x| >= 1/2
		}
		if !up {
			z.setZero(x.neg)
			if x.neg {
				return 1
			}
			return -1
		}
		z.setRounded(x.neg, mpnat.Nat{1}, 0, false, rnd)
		if x.neg {
			return -1
		}
		return 1
	}
	// Split integer and fraction parts of the mantissa.
	fracBits := uint(-ue)
	var buf [scratchWords]uint64
	intPart := mpnat.Nat(buf[:0]).Shr(x.mant, fracBits)
	guard := x.mant.Bit(int(fracBits)-1) == 1
	sticky := lowBitsNonzero(x.mant, int(fracBits)-1)
	up := false
	if guard || sticky {
		up = roundUpDecision(x.neg, guard, sticky, intPart, rnd)
	}
	if up {
		intPart = intPart.AddWord(intPart, 1)
	}
	t := z.setRounded(x.neg, intPart, 0, false, rnd)
	if guard || sticky {
		if up != x.neg {
			return 1
		}
		return -1
	}
	return t
}

func isPow2Mant(m mpnat.Nat) bool {
	return m.BitLen() == m.TrailingZeros()+1
}

// Trunc sets z to x rounded toward zero to an integral value.
func (z *Float) Trunc(x *Float) int { return z.rint(x, RoundTowardZero) }

// Floor sets z to the largest integral value <= x.
func (z *Float) Floor(x *Float) int { return z.rint(x, RoundTowardNegative) }

// Ceil sets z to the smallest integral value >= x.
func (z *Float) Ceil(x *Float) int { return z.rint(x, RoundTowardPositive) }

// RoundEven sets z to x rounded to the nearest integral value, ties to even.
func (z *Float) RoundEven(x *Float) int { return z.rint(x, RoundNearestEven) }

// Round sets z to x rounded to the nearest integral value, ties away from 0.
func (z *Float) Round(x *Float) int { return z.rint(x, RoundNearestAway) }
