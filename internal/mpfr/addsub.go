package mpfr

import "fpvm/internal/mpnat"

// unitExp returns the exponent E of x's unit so that x = ±mant * 2^E.
func (x *Float) unitExp() int64 {
	return x.exp - int64(x.mant.BitLen())
}

// Add sets z to x + y rounded to z's precision and returns the ternary value.
func (z *Float) Add(x, y *Float, rnd RoundingMode) int {
	if t, done := z.addSpecial(x, y, false, rnd); done {
		return t
	}
	return z.addMant(x.neg, x.mant, x.unitExp(), y.neg, y.mant, y.unitExp(), rnd)
}

// Sub sets z to x - y rounded to z's precision and returns the ternary value.
func (z *Float) Sub(x, y *Float, rnd RoundingMode) int {
	if t, done := z.addSpecial(x, y, true, rnd); done {
		return t
	}
	return z.addMant(x.neg, x.mant, x.unitExp(), !y.neg, y.mant, y.unitExp(), rnd)
}

// addSpecial handles NaN/Inf/zero operands for Add (negY=false) and Sub
// (negY=true). The bool result reports whether the operation was completed.
func (z *Float) addSpecial(x, y *Float, negY bool, rnd RoundingMode) (int, bool) {
	if x.form == finite && y.form == finite {
		return 0, false
	}
	yneg := y.neg != negY
	switch {
	case x.form == nan || y.form == nan:
		z.setNaN()
	case x.form == inf && y.form == inf:
		if x.neg == yneg {
			z.setInf(x.neg)
		} else {
			z.setNaN() // Inf - Inf
		}
	case x.form == inf:
		z.setInf(x.neg)
	case y.form == inf:
		z.setInf(yneg)
	case x.form == zero && y.form == zero:
		// IEEE 754: (+0) + (-0) = +0 except in RTN where it is -0.
		if x.neg == yneg {
			z.setZero(x.neg)
		} else {
			z.setZero(rnd == RoundTowardNegative)
		}
	case x.form == zero:
		t := z.Set(y, rnd)
		if negY && z.form != nan {
			z.neg = !z.neg
			t = -t
		}
		return t, true
	default: // y is zero
		return z.Set(x, rnd), true
	}
	return 0, true
}

// addMant computes (-1)^negA * Ma * 2^Ea + (-1)^negB * Mb * 2^Eb, rounds to
// z's precision, and returns the ternary value. Both mantissas must be
// nonzero. This is the shared engine behind Add, Sub, and FMA.
func (z *Float) addMant(negA bool, ma mpnat.Nat, ea int64, negB bool, mb mpnat.Nat, eb int64, rnd RoundingMode) int {
	// Order so that a is the operand with the higher most-significant bit.
	higha := ea + int64(ma.BitLen())
	highb := eb + int64(mb.BitLen())
	if higha < highb || (higha == highb && absCmp(ma, ea, mb, eb) < 0) {
		ma, mb = mb, ma
		ea, eb = eb, ea
		negA, negB = negB, negA
		higha, highb = highb, higha
	}

	prec := int64(z.effPrec())
	sameSign := negA == negB

	// Far-apart shortcut: b is entirely below a's guard+sticky region.
	// Extend a by s bits so the extended mantissa has at least prec+3 bits
	// (satisfying setRounded's sticky contract) and b is worth strictly
	// less than one unit of the extended a.
	bla := int64(ma.BitLen())
	s := int64(3)
	if prec+3-bla > s {
		s = prec + 3 - bla
	}
	if gap := higha - highb; gap >= bla+s {
		var buf [scratchWords]uint64
		m := mpnat.Nat(buf[:0]).Shl(ma, uint(s))
		if sameSign {
			// Value is m + eps with 0 < eps < 1 unit.
			return z.setRounded(negA, m, ea-s, true, rnd)
		}
		// Value is m - eps = (m-1) + (1-eps) with 0 < 1-eps < 1 unit.
		return z.setRounded(negA, m.Sub(m, mpnat.Nat{1}), ea-s, true, rnd)
	}

	// Exact path: align to the common unit and add/subtract precisely.
	// The shift amounts are bounded by the gap check above plus operand
	// precisions, so this cannot blow up. Only the operand above the
	// common unit needs shifting.
	var shbuf, sumbuf [scratchWords]uint64
	unit, sa, sb := alignUnits(shbuf[:0], ma, ea, mb, eb)
	sum := mpnat.Nat(sumbuf[:0])
	if sameSign {
		return z.setRounded(negA, sum.Add(sa, sb), unit, false, rnd)
	}
	switch sa.Cmp(sb) {
	case 0:
		// Exact cancellation: IEEE sum of opposite values is +0 (RTN: -0).
		z.setZero(rnd == RoundTowardNegative)
		return 0
	case 1:
		return z.setRounded(negA, sum.Sub(sa, sb), unit, false, rnd)
	default:
		return z.setRounded(negB, sum.Sub(sb, sa), unit, false, rnd)
	}
}

// alignUnits rescales Ma * 2^Ea and Mb * 2^Eb to the common unit
// min(Ea, Eb), returning it and the two integer mantissas. The operand
// above the unit is shifted into buf's storage; the other is returned as is.
func alignUnits(buf mpnat.Nat, ma mpnat.Nat, ea int64, mb mpnat.Nat, eb int64) (unit int64, sa, sb mpnat.Nat) {
	switch {
	case ea > eb:
		return eb, buf.Shl(ma, uint(ea-eb)), mb
	case eb > ea:
		return ea, ma, buf.Shl(mb, uint(eb-ea))
	}
	return ea, ma, mb
}

// absCmp compares |Ma * 2^Ea| with |Mb * 2^Eb| given both have the same
// most-significant-bit position.
func absCmp(ma mpnat.Nat, ea int64, mb mpnat.Nat, eb int64) int {
	var buf [scratchWords]uint64
	_, sa, sb := alignUnits(buf[:0], ma, ea, mb, eb)
	return sa.Cmp(sb)
}

// Cmp compares x and y and returns -1, 0, or +1. It returns 0 if either
// operand is NaN (callers needing IEEE unordered semantics should test
// IsNaN first, as the arith bindings do).
func (x *Float) Cmp(y *Float) int {
	if x.form == nan || y.form == nan {
		return 0
	}
	sx, sy := x.Sign(), y.Sign()
	switch {
	case sx < sy:
		return -1
	case sx > sy:
		return 1
	case sx == 0:
		return 0
	}
	// Same nonzero sign: compare magnitudes.
	c := x.cmpAbs(y)
	if sx < 0 {
		return -c
	}
	return c
}

// cmpAbs compares |x| and |y| for finite or infinite x, y.
func (x *Float) cmpAbs(y *Float) int {
	switch {
	case x.form == inf && y.form == inf:
		return 0
	case x.form == inf:
		return 1
	case y.form == inf:
		return -1
	case x.form == zero && y.form == zero:
		return 0
	case x.form == zero:
		return -1
	case y.form == zero:
		return 1
	}
	switch {
	case x.exp < y.exp:
		return -1
	case x.exp > y.exp:
		return 1
	}
	return absCmp(x.mant, x.unitExp(), y.mant, y.unitExp())
}

// CmpAbs compares |x| and |y|, returning -1, 0, or +1; NaNs compare as 0.
func (x *Float) CmpAbs(y *Float) int {
	if x.form == nan || y.form == nan {
		return 0
	}
	return x.cmpAbs(y)
}
