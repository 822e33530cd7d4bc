package mpfr

// Pow sets z to x^y rounded to z's precision and returns the ternary value.
// The IEEE 754 pow special cases are honored: pow(x, 0) = 1 for any x
// (including NaN), pow(1, y) = 1, negative base with non-integer exponent is
// NaN, and zeros/infinities follow the usual sign rules.
func (z *Float) Pow(x, y *Float, rnd RoundingMode) int {
	// pow(x, 0) = 1 and pow(1, y) = 1, even for NaN partners.
	if y.form == zero {
		return z.SetUint64(1, rnd)
	}
	if x.form == finite && !x.neg && x.exp == 1 && isPow2Mant(x.mant) {
		return z.SetUint64(1, rnd) // x == 1
	}
	if x.form == nan || y.form == nan {
		z.setNaN()
		return 0
	}

	yInt, yIsInt, yOdd := intExponent(y)

	switch x.form {
	case zero:
		negOut := x.neg && yIsInt && yOdd
		if y.neg { // pow(±0, negative) = ±Inf
			z.setInf(negOut)
		} else {
			z.setZero(negOut)
		}
		return 0
	case inf:
		negOut := x.neg && yIsInt && yOdd
		if y.neg {
			z.setZero(negOut)
		} else {
			z.setInf(negOut)
		}
		return 0
	}

	if y.form == inf {
		// |x| vs 1 decides.
		var oneb [1]uint64
		one := local(8, oneb[:])
		one.SetUint64(1, RoundNearestEven)
		c := x.cmpAbs(&one)
		switch {
		case c == 0:
			return z.SetUint64(1, rnd) // pow(±1, ±Inf) = 1
		case (c > 0) != y.neg:
			z.setInf(false)
		default:
			z.setZero(false)
		}
		return 0
	}

	if x.neg && !yIsInt {
		z.setNaN()
		return 0
	}

	// Integer exponents of modest size: exact repeated squaring.
	if yIsInt && yInt > -(1<<20) && yInt < 1<<20 {
		return z.powInt(x, yInt, rnd)
	}

	// General case: z = ± exp(y · ln |x|). A negative base reaches here only
	// with an integer exponent too large for powInt (|y| ≥ 2^20); the sign
	// of the result is then decided by the exponent's parity.
	var axb, lxb, prodb, rb [stackWords]uint64
	ax := local(uint(x.effPrec()), axb[:])
	ax.Abs(x, RoundNearestEven)
	negOut := x.neg && yOdd
	wp := z.wprec() + 64
	lx := local(wp, lxb[:])
	lx.Log(&ax, RoundNearestEven)
	prod := local(wp, prodb[:])
	prod.Mul(y, &lx, RoundNearestEven)
	r := local(wp, rb[:])
	r.Exp(&prod, RoundNearestEven)
	if negOut {
		r.neg = !r.neg
	}
	return z.Set(&r, rnd)
}

// intExponent reports whether y is an integer, its value (when it fits in
// int64; otherwise saturated), and whether that integer is odd.
func intExponent(y *Float) (v int64, isInt, odd bool) {
	if y.form != finite {
		return 0, false, false
	}
	ue := y.unitExp()
	if ue < 0 {
		if -ue >= int64(y.mant.BitLen()) {
			return 0, false, false // |y| < 1 and nonzero: not an integer
		}
		if lowBitsNonzero(y.mant, int(-ue)) {
			return 0, false, false // fractional bits present
		}
	}
	v, ok := y.Int64(RoundTowardZero)
	if !ok {
		// Huge integer exponent. Parity: the value is mant·2^ue, so it is
		// odd exactly when the bit at the unit position is the lowest set bit.
		switch {
		case ue > 0:
			odd = false
		case ue == 0:
			odd = y.mant.Bit(0) == 1
		default:
			odd = y.mant.Bit(int(-ue)) == 1
		}
		return saturateInt64(y.neg), true, odd
	}
	return v, true, v&1 != 0
}

func saturateInt64(neg bool) int64 {
	if neg {
		return -(1 << 62)
	}
	return 1 << 62
}

// powInt computes x^n for integer n via binary exponentiation with guard
// precision, handling negative n by inversion.
func (z *Float) powInt(x *Float, n int64, rnd RoundingMode) int {
	wp := z.wprec() + 64
	var accb, baseb [stackWords]uint64
	acc := local(wp, accb[:])
	acc.SetUint64(1, RoundNearestEven)
	base := local(wp, baseb[:])
	base.Set(x, RoundNearestEven)
	m := n
	if m < 0 {
		m = -m
	}
	for m > 0 {
		if m&1 == 1 {
			acc.Mul(&acc, &base, RoundNearestEven)
		}
		base.Sqr(&base, RoundNearestEven)
		m >>= 1
	}
	if n < 0 {
		var oneb [1]uint64
		one := local(8, oneb[:])
		one.SetUint64(1, RoundNearestEven)
		acc.Div(&one, &acc, RoundNearestEven)
	}
	return z.Set(&acc, rnd)
}

// Hypot sets z to sqrt(x² + y²) without undue overflow for moderate inputs.
func (z *Float) Hypot(x, y *Float, rnd RoundingMode) int {
	if x.form == inf || y.form == inf {
		z.setInf(false)
		return 0
	}
	if x.form == nan || y.form == nan {
		z.setNaN()
		return 0
	}
	wp := z.wprec() + 32
	var xxb, yyb, sb, rb [stackWords]uint64
	xx := local(wp, xxb[:])
	yy := local(wp, yyb[:])
	xx.Sqr(x, RoundNearestEven)
	yy.Sqr(y, RoundNearestEven)
	s := local(wp, sb[:])
	s.Add(&xx, &yy, RoundNearestEven)
	r := local(wp, rb[:])
	r.Sqrt(&s, RoundNearestEven)
	return z.Set(&r, rnd)
}
