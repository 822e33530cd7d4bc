package mpfr

import "fpvm/internal/mpnat"

// unitExp returns the exponent E of x's unit so that x = ±mant * 2^E.
func (x *Float) unitExp() int64 {
	return x.exp - int64(nbits(x.mant))
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
// nonzero with their top words nonzero. This is the shared engine behind
// Add, Sub, and FMA.
func (z *Float) addMant(negA bool, ma []uint64, ea int64, negB bool, mb []uint64, eb int64, rnd RoundingMode) int {
	// Order so that a is the operand with the higher most-significant bit.
	bla, blb := int64(nbits(ma)), int64(nbits(mb))
	higha, highb := ea+bla, eb+blb
	if higha < highb {
		ma, mb = mb, ma
		ea, eb = eb, ea
		negA, negB = negB, negA
		higha, highb = highb, higha
		bla = blb
	}

	// Far-apart shortcut: b is worth less than an eighth of a unit of a
	// extended by s bits, where the extended mantissa has at least prec+3
	// bits.
	prec := int64(z.effPrec())
	s := max(3, prec+3-bla)
	if higha-highb >= bla+s {
		if negA == negB {
			// a + ε rounds like a with a sticky bit: ε is below a's guard
			// bit, or below half a unit of the result when a is shorter.
			return z.setRounded(negA, ma, ea, true, rnd)
		}
		// a - ε = (a·2^s - 1) + (1 - ε) in units of 2^(ea-s), 0 < 1-ε < 1.
		var buf [2*stackWords + 2]uint64
		m := words(buf[:], len(ma)+int(s/64)+1)
		shlInto(m, ma, int(s))
		mpnat.SubWordN(m, m, 1)
		return z.setRounded(negA, m, ea-s, true, rnd)
	}

	// Exact path: shift the operand with the higher unit up to the other's
	// unit, add or subtract in place, and round once. The gap test above
	// bounds the shift by the operands' and the result's precisions.
	hi, lo, negHi, negLo, d := ma, mb, negA, negB, ea-eb
	unit := eb
	if d < 0 {
		hi, lo, negHi, negLo, d = mb, ma, negB, negA, -d
		unit = ea
	}
	var buf [3 * stackWords]uint64
	sum := words(buf[:], max(len(lo), int(d/64)+len(hi)+1)+1)
	shlInto(sum, hi, int(d))
	neg := negHi
	if negHi == negLo {
		mpnat.AddN(sum, sum, lo)
	} else if mpnat.SubN(sum, sum, lo) != 0 {
		// |lo| > |hi|: negate the two's-complement difference.
		for i, w := range sum {
			sum[i] = ^w
		}
		mpnat.AddWordN(sum, sum, 1)
		neg = negLo
	}
	if isZeroN(sum) {
		// Exact cancellation: IEEE sum of opposite values is +0 (RTN: -0).
		z.setZero(rnd == RoundTowardNegative)
		return 0
	}
	return z.setRounded(neg, sum, unit, false, rnd)
}

// absCmp compares |Ma * 2^Ea| with |Mb * 2^Eb| given both have the same
// most-significant-bit position: the shorter mantissa is shifted up to the
// longer one's bit length and the words are compared.
func absCmp(ma []uint64, mb []uint64) int {
	d := nbits(ma) - nbits(mb)
	sign := 1
	if d < 0 {
		ma, mb, d, sign = mb, ma, -d, -1
	}
	var buf [stackWords]uint64
	b := words(buf[:], len(ma))
	shlInto(b, mb, d)
	return sign * mpnat.CmpN(ma, b)
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
	return absCmp(x.mant, y.mant)
}

// CmpAbs compares |x| and |y|, returning -1, 0, or +1; NaNs compare as 0.
func (x *Float) CmpAbs(y *Float) int {
	if x.form == nan || y.form == nan {
		return 0
	}
	return x.cmpAbs(y)
}
