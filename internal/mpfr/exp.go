package mpfr

// Transcendental functions are computed at a working precision wp =
// prec + guard bits and then rounded once to the destination precision.
// They are faithful (< 1 ulp error) rather than correctly rounded; GNU MPFR
// offers correct rounding via Ziv's loop, which FPVM does not rely on.
// Their temporaries are stack-resident Floats (see local), so at the
// precisions stackWords covers they allocate nothing.

const transGuardBits = 64

// wprec returns the working precision for transcendental evaluation into z.
func (z *Float) wprec() uint { return uint(z.effPrec()) + transGuardBits }

// Exp sets z to e^x rounded to z's precision and returns the ternary value.
func (z *Float) Exp(x *Float, rnd RoundingMode) int {
	switch x.form {
	case nan:
		z.setNaN()
		return 0
	case inf:
		if x.neg {
			z.setZero(false)
		} else {
			z.setInf(false)
		}
		return 0
	case zero:
		return z.SetUint64(1, rnd)
	}
	wp := z.wprec()

	// Guard against absurd magnitudes: e^x overflows any practical range.
	// 2^62 in the exponent keeps all downstream arithmetic well-defined.
	if x.exp > 62 {
		if x.neg {
			z.setZero(false)
			return -1 // stored 0 is below the tiny positive exact value
		}
		z.setInf(false)
		return 1 // stored +Inf exceeds the finite exact value
	}

	// Range reduction: x = k·ln2 + r with |r| <= ln2/2, e^x = 2^k · e^r.
	var ln2b, kfb, rb, klb, erb [stackWords]uint64
	ln2 := local(wp+64, ln2b[:])
	ln2.Ln2(RoundNearestEven)
	kf := local(64, kfb[:])
	kf.Div(x, &ln2, RoundNearestEven)
	k, _ := kf.Int64(RoundNearestEven)
	r := local(wp+64, rb[:])
	kl := local(wp+64, klb[:])
	kl.SetInt64(k, RoundNearestEven)
	kl.Mul(&kl, &ln2, RoundNearestEven)
	r.Sub(x, &kl, RoundNearestEven)

	er := local(wp, erb[:])
	expSmall(&er, &r, wp)
	er.exp += k // multiply by 2^k
	return z.Set(&er, rnd)
}

// expSmall sets s, of precision wp, to e^r for |r| <= 1 using further
// binary reduction (r' = r / 2^j, square j times) plus the Taylor series.
func expSmall(s, r *Float, wp uint) {
	const j = 16
	var rrb [stackWords]uint64
	rr := local(wp, rrb[:])
	rr.Set(r, RoundNearestEven)
	if rr.form == finite {
		rr.exp -= j // divide by 2^j
	}
	expTaylor(s, &rr, wp)
	for i := 0; i < j; i++ {
		s.Sqr(s, RoundNearestEven)
	}
}

// expTaylor sets sum, of precision wp, to e^t by direct Taylor summation;
// |t| must be tiny (<= 2^-8 or so) for fast convergence.
func expTaylor(sum, t *Float, wp uint) {
	var termb, nfb [stackWords]uint64
	sum.SetUint64(1, RoundNearestEven)
	term := local(wp, termb[:])
	term.SetUint64(1, RoundNearestEven)
	nf := local(wp, nfb[:])
	for n := int64(1); ; n++ {
		term.Mul(&term, t, RoundNearestEven)
		nf.SetInt64(n, RoundNearestEven)
		term.Div(&term, &nf, RoundNearestEven)
		if term.form == zero || term.exp < sum.exp-int64(wp)-2 {
			break
		}
		sum.Add(sum, &term, RoundNearestEven)
	}
}

// Expm1 sets z to e^x − 1 with good accuracy near zero.
func (z *Float) Expm1(x *Float, rnd RoundingMode) int {
	switch x.form {
	case nan:
		z.setNaN()
		return 0
	case inf:
		if x.neg {
			return z.SetInt64(-1, rnd)
		}
		z.setInf(false)
		return 0
	case zero:
		z.setZero(x.neg)
		return 0
	}
	wp := z.wprec()
	var sumb, termb, nfb, xsb [stackWords]uint64
	if x.exp <= -2 {
		// |x| < 1/2: Taylor of expm1 directly avoids cancellation.
		sum := local(wp+64, sumb[:])
		term := local(wp+64, termb[:])
		term.SetUint64(1, RoundNearestEven)
		nf := local(wp+64, nfb[:])
		xs := local(wp+64, xsb[:])
		xs.Set(x, RoundNearestEven)
		for n := int64(1); ; n++ {
			term.Mul(&term, &xs, RoundNearestEven)
			nf.SetInt64(n, RoundNearestEven)
			term.Div(&term, &nf, RoundNearestEven)
			if n == 1 {
				sum.Set(&term, RoundNearestEven)
				continue
			}
			if term.form == zero || (sum.form == finite && term.exp < sum.exp-int64(wp)-2) {
				break
			}
			sum.Add(&sum, &term, RoundNearestEven)
		}
		return z.Set(&sum, rnd)
	}
	var oneb [1]uint64
	e := local(wp+64, sumb[:])
	e.Exp(x, RoundNearestEven)
	one := local(8, oneb[:])
	one.SetUint64(1, RoundNearestEven)
	e.Sub(&e, &one, RoundNearestEven)
	return z.Set(&e, rnd)
}
