package mpfr

// maxArgReductionBits caps the extra working precision spent on trigonometric
// argument reduction for astronomically large arguments. Beyond this, results
// degrade gracefully rather than exhausting memory (documented limitation;
// FPVM workloads keep trig arguments within a few hundred bits of exponent).
const maxArgReductionBits = 1 << 12

// trigReduce sets r, of precision wp+32, to the reduced argument and
// returns the quadrant q (mod 4) such that x = n·(π/2) + r, |r| <= π/4,
// q = n mod 4.
func trigReduce(r, x *Float, wp uint) (quadrant int64) {
	extra := uint(0)
	if x.exp > 0 {
		extra = uint(x.exp)
		if extra > maxArgReductionBits {
			extra = maxArgReductionBits
		}
	}
	wr := wp + extra + 32
	var halfPib, nfb, nlb [stackWords]uint64
	halfPi := local(wr, halfPib[:])
	halfPi.Pi(RoundNearestEven)
	halfPi.exp-- // π/2

	nf := local(wr, nfb[:])
	nf.Div(x, &halfPi, RoundNearestEven)
	n, ok := nf.Int64(RoundNearestEven)
	if !ok {
		// Argument too large to reduce meaningfully; give up gracefully.
		r.setZero(false)
		return 0
	}
	nl := local(wr, nlb[:])
	nl.SetInt64(n, RoundNearestEven)
	nl.Mul(&nl, &halfPi, RoundNearestEven)
	r.Sub(x, &nl, RoundNearestEven)
	return ((n % 4) + 4) % 4
}

// sinTaylor sets sum, of precision wp, to sin(r) for |r| <= π/4.
func sinTaylor(sum, r *Float, wp uint) {
	sum.Set(r, RoundNearestEven)
	if r.form != finite {
		return
	}
	var r2b, termb, dfb [stackWords]uint64
	r2 := local(wp, r2b[:])
	r2.Sqr(r, RoundNearestEven)
	term := local(wp, termb[:])
	term.Set(r, RoundNearestEven)
	df := local(wp, dfb[:])
	for n := int64(1); ; n++ {
		// term *= -r² / ((2n)(2n+1))
		term.Mul(&term, &r2, RoundNearestEven)
		df.SetInt64(2*n*(2*n+1), RoundNearestEven)
		term.Div(&term, &df, RoundNearestEven)
		term.neg = !term.neg
		if term.form == zero || (sum.form == finite && term.exp < sum.exp-int64(wp)-2) {
			break
		}
		sum.Add(sum, &term, RoundNearestEven)
	}
}

// cosTaylor sets sum, of precision wp, to cos(r) for |r| <= π/4.
func cosTaylor(sum, r *Float, wp uint) {
	sum.SetUint64(1, RoundNearestEven)
	if r.form != finite {
		if r.form != zero {
			sum.setNaN()
		}
		return
	}
	var r2b, termb, dfb [stackWords]uint64
	r2 := local(wp, r2b[:])
	r2.Sqr(r, RoundNearestEven)
	term := local(wp, termb[:])
	term.SetUint64(1, RoundNearestEven)
	df := local(wp, dfb[:])
	for n := int64(1); ; n++ {
		// term *= -r² / ((2n-1)(2n))
		term.Mul(&term, &r2, RoundNearestEven)
		df.SetInt64((2*n-1)*(2*n), RoundNearestEven)
		term.Div(&term, &df, RoundNearestEven)
		term.neg = !term.neg
		if term.form == zero || term.exp < sum.exp-int64(wp)-2 {
			break
		}
		sum.Add(sum, &term, RoundNearestEven)
	}
}

// Sin sets z to sin(x) rounded to z's precision and returns the ternary value.
func (z *Float) Sin(x *Float, rnd RoundingMode) int {
	switch x.form {
	case nan, inf:
		z.setNaN()
		return 0
	case zero:
		z.setZero(x.neg)
		return 0
	}
	wp := z.wprec() + 32
	var rb, resb [stackWords]uint64
	r := local(wp+32, rb[:])
	q := trigReduce(&r, x, wp)
	res := local(wp, resb[:])
	if q%2 == 0 {
		sinTaylor(&res, &r, wp)
	} else {
		cosTaylor(&res, &r, wp)
	}
	if q >= 2 {
		res.negInPlace()
	}
	return z.Set(&res, rnd)
}

// Cos sets z to cos(x) rounded to z's precision and returns the ternary value.
func (z *Float) Cos(x *Float, rnd RoundingMode) int {
	switch x.form {
	case nan, inf:
		z.setNaN()
		return 0
	case zero:
		return z.SetUint64(1, rnd)
	}
	wp := z.wprec() + 32
	var rb, resb [stackWords]uint64
	r := local(wp+32, rb[:])
	q := trigReduce(&r, x, wp)
	res := local(wp, resb[:])
	if q%2 == 0 {
		cosTaylor(&res, &r, wp)
	} else {
		sinTaylor(&res, &r, wp)
	}
	if q == 1 || q == 2 {
		res.negInPlace()
	}
	return z.Set(&res, rnd)
}

// Tan sets z to tan(x) rounded to z's precision and returns the ternary value.
func (z *Float) Tan(x *Float, rnd RoundingMode) int {
	switch x.form {
	case nan, inf:
		z.setNaN()
		return 0
	case zero:
		z.setZero(x.neg)
		return 0
	}
	wp := z.wprec() + 32
	var rb, sb, cb, tb [stackWords]uint64
	r := local(wp+32, rb[:])
	q := trigReduce(&r, x, wp)
	s := local(wp, sb[:])
	sinTaylor(&s, &r, wp)
	c := local(wp, cb[:])
	cosTaylor(&c, &r, wp)
	t := local(wp, tb[:])
	if q == 1 || q == 3 {
		// tan(x) = -cos(r)/sin(r) in odd quadrants.
		t.Div(&c, &s, RoundNearestEven)
		t.negInPlace()
	} else {
		t.Div(&s, &c, RoundNearestEven)
	}
	return z.Set(&t, rnd)
}

func (x *Float) negInPlace() {
	if x.form != nan {
		x.neg = !x.neg
	}
}

// atanSmall sets sum, of precision wp, to atan(t) = t − t³/3 + t⁵/5 − ...
// for |t| < 1, accurate when |t| is small.
func atanSmall(sum, t *Float, wp uint) {
	sum.Set(t, RoundNearestEven)
	if t.form != finite {
		return
	}
	var t2b, powb, termb, dfb [stackWords]uint64
	t2 := local(wp, t2b[:])
	t2.Sqr(t, RoundNearestEven)
	pow := local(wp, powb[:])
	pow.Set(t, RoundNearestEven)
	term := local(wp, termb[:])
	df := local(wp, dfb[:])
	for n := int64(1); ; n++ {
		pow.Mul(&pow, &t2, RoundNearestEven)
		pow.negInPlace()
		df.SetInt64(2*n+1, RoundNearestEven)
		term.Div(&pow, &df, RoundNearestEven)
		if term.form == zero || term.exp < sum.exp-int64(wp)-2 {
			break
		}
		sum.Add(sum, &term, RoundNearestEven)
	}
}

// halfPi sets z to π/2 with sign neg, rounded to z's precision.
func (z *Float) halfPi(neg bool, rnd RoundingMode) int {
	var pib [stackWords]uint64
	pi := local(z.wprec(), pib[:])
	pi.Pi(RoundNearestEven)
	pi.exp-- // π/2
	pi.neg = neg
	return z.Set(&pi, rnd)
}

// Atan sets z to arctan(x) rounded to z's precision; returns ternary value.
func (z *Float) Atan(x *Float, rnd RoundingMode) int {
	switch x.form {
	case nan:
		z.setNaN()
		return 0
	case zero:
		z.setZero(x.neg)
		return 0
	case inf:
		return z.halfPi(x.neg, rnd)
	}
	wp := z.wprec() + 64
	var tb, tmpb, denb, resb, pi2b [stackWords]uint64
	var oneb [1]uint64
	one := local(8, oneb[:])
	one.SetUint64(1, RoundNearestEven)

	t := local(wp, tb[:])
	invert := x.exp > 0 // |x| >= 1 (or could be exactly 1)
	if invert {
		t.Div(&one, x, RoundNearestEven)
		t.neg = false
	} else {
		t.Abs(x, RoundNearestEven)
	}

	// Halve the angle k times: atan(t) = 2·atan(t / (1 + sqrt(1+t²))).
	const k = 8
	tmp := local(wp, tmpb[:])
	den := local(wp, denb[:])
	for i := 0; i < k; i++ {
		tmp.Sqr(&t, RoundNearestEven)
		tmp.Add(&tmp, &one, RoundNearestEven)
		tmp.Sqrt(&tmp, RoundNearestEven)
		den.Add(&tmp, &one, RoundNearestEven)
		t.Div(&t, &den, RoundNearestEven)
	}
	res := local(wp, resb[:])
	atanSmall(&res, &t, wp)
	if res.form == finite {
		res.exp += k
	}
	if invert {
		// atan(|x|) = π/2 − atan(1/|x|)
		pi2 := local(wp, pi2b[:])
		pi2.Pi(RoundNearestEven)
		pi2.exp--
		res.Sub(&pi2, &res, RoundNearestEven)
	}
	res.neg = res.neg != x.neg
	return z.Set(&res, rnd)
}

// Asin sets z to arcsin(x); NaN outside [−1, 1].
func (z *Float) Asin(x *Float, rnd RoundingMode) int {
	switch x.form {
	case nan, inf:
		z.setNaN()
		return 0
	case zero:
		z.setZero(x.neg)
		return 0
	}
	var oneb [1]uint64
	one := local(8, oneb[:])
	one.SetUint64(1, RoundNearestEven)
	switch x.cmpAbs(&one) {
	case 1:
		z.setNaN()
		return 0
	case 0:
		return z.halfPi(x.neg, rnd)
	}
	// asin(x) = atan(x / sqrt(1 − x²)).
	wp := z.wprec() + 64
	var tb, rb [stackWords]uint64
	t := local(wp, tb[:])
	t.Sqr(x, RoundNearestEven)
	t.Sub(&one, &t, RoundNearestEven)
	t.Sqrt(&t, RoundNearestEven)
	t.Div(x, &t, RoundNearestEven)
	r := local(wp, rb[:])
	r.Atan(&t, RoundNearestEven)
	return z.Set(&r, rnd)
}

// Acos sets z to arccos(x); NaN outside [−1, 1].
func (z *Float) Acos(x *Float, rnd RoundingMode) int {
	switch x.form {
	case nan, inf:
		z.setNaN()
		return 0
	}
	var oneb [1]uint64
	one := local(8, oneb[:])
	one.SetUint64(1, RoundNearestEven)
	if x.form == finite && x.cmpAbs(&one) > 0 {
		z.setNaN()
		return 0
	}
	// acos(x) = 2·atan(sqrt((1−x)/(1+x))), stable near x = ±1.
	wp := z.wprec() + 64
	var numb, denb, tb, rb [stackWords]uint64
	num := local(wp, numb[:])
	den := local(wp, denb[:])
	num.Sub(&one, x, RoundNearestEven)
	den.Add(&one, x, RoundNearestEven)
	if den.form == zero {
		// x == −1: acos = π.
		pi := local(z.wprec(), tb[:])
		pi.Pi(RoundNearestEven)
		return z.Set(&pi, rnd)
	}
	t := local(wp, tb[:])
	t.Div(&num, &den, RoundNearestEven)
	t.Sqrt(&t, RoundNearestEven)
	r := local(wp, rb[:])
	r.Atan(&t, RoundNearestEven)
	if r.form == finite {
		r.exp++
	}
	return z.Set(&r, rnd)
}

// Atan2 sets z to the angle of the point (x, y) in the plane, i.e.
// atan(y/x) adjusted for the quadrant, following IEEE 754 atan2 semantics
// for zeros and infinities (subset sufficient for FPVM workloads).
func (z *Float) Atan2(y, x *Float, rnd RoundingMode) int {
	if y.form == nan || x.form == nan {
		z.setNaN()
		return 0
	}
	wp := z.wprec() + 64
	var pib, qb, ab [stackWords]uint64
	pi := local(wp, pib[:])
	pi.Pi(RoundNearestEven)

	switch {
	case y.form == zero:
		if x.neg { // x < 0 or -0: ±π
			pi.neg = y.neg
			return z.Set(&pi, rnd)
		}
		z.setZero(y.neg)
		return 0
	case x.form == zero:
		pi.exp-- // π/2
		pi.neg = y.neg
		return z.Set(&pi, rnd)
	case x.form == inf && y.form == inf:
		// ±π/4 or ±3π/4
		pi.exp -= 2 // π/4
		if x.neg {
			var threeb [1]uint64
			three := local(8, threeb[:])
			three.SetUint64(3, RoundNearestEven)
			pi.Mul(&pi, &three, RoundNearestEven)
		}
		pi.neg = y.neg
		return z.Set(&pi, rnd)
	case x.form == inf:
		if x.neg {
			pi.neg = y.neg
			return z.Set(&pi, rnd)
		}
		z.setZero(y.neg)
		return 0
	case y.form == inf:
		pi.exp--
		pi.neg = y.neg
		return z.Set(&pi, rnd)
	}

	q := local(wp, qb[:])
	q.Div(y, x, RoundNearestEven)
	a := local(wp, ab[:])
	a.Atan(&q, RoundNearestEven)
	if x.neg {
		// Shift into the correct half-plane.
		if y.neg {
			a.Sub(&a, &pi, RoundNearestEven)
		} else {
			a.Add(&a, &pi, RoundNearestEven)
		}
	}
	return z.Set(&a, rnd)
}
