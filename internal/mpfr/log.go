package mpfr

// Log sets z to the natural logarithm of x rounded to z's precision and
// returns the ternary value. Log of a negative number is NaN; Log(±0) is
// −Inf; Log(+Inf) is +Inf.
func (z *Float) Log(x *Float, rnd RoundingMode) int {
	switch {
	case x.form == nan:
		z.setNaN()
		return 0
	case x.form == zero:
		z.setInf(true)
		return 0
	case x.neg:
		z.setNaN()
		return 0
	case x.form == inf:
		z.setInf(false)
		return 0
	}
	// Exact shortcut: log(1) = 0.
	if x.exp == 1 && isPow2Mant(x.mant) {
		z.setZero(false)
		return 0
	}
	wp := z.wprec() + 64
	var mb, numb, denb, tb, lnmb, ln2b, kfb [stackWords]uint64
	var oneb [1]uint64

	// Write x = m · 2^k with m ∈ [1, 2).
	k := x.exp - 1
	m := local(wp, mb[:])
	m.Set(x, RoundNearestEven)
	m.exp = 1 // now m ∈ [1, 2)

	// Bring m close to 1 with j successive square roots:
	// ln m = 2^j · ln m^(1/2^j).
	const j = 8
	for i := 0; i < j; i++ {
		m.Sqrt(&m, RoundNearestEven)
	}

	// atanh series: ln m = 2·atanh((m−1)/(m+1)).
	one := local(8, oneb[:])
	one.SetUint64(1, RoundNearestEven)
	num := local(wp, numb[:])
	den := local(wp, denb[:])
	num.Sub(&m, &one, RoundNearestEven)
	den.Add(&m, &one, RoundNearestEven)
	t := local(wp, tb[:])
	t.Div(&num, &den, RoundNearestEven)

	lnm := local(wp, lnmb[:])
	atanhSmall(&lnm, &t, wp)
	lnm.exp += j + 1 // times 2^j (sqrt undo) times 2 (atanh identity)

	// ln x = k·ln2 + ln m.
	if k != 0 {
		ln2 := local(wp, ln2b[:])
		ln2.Ln2(RoundNearestEven)
		kf := local(wp, kfb[:])
		kf.SetInt64(k, RoundNearestEven)
		kf.Mul(&kf, &ln2, RoundNearestEven)
		lnm.Add(&lnm, &kf, RoundNearestEven)
	}
	return z.Set(&lnm, rnd)
}

// atanhSmall sets sum, of precision wp, to atanh(t) = t + t³/3 + t⁵/5 + ...
// for tiny |t|.
func atanhSmall(sum, t *Float, wp uint) {
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
		df.SetInt64(2*n+1, RoundNearestEven)
		term.Div(&pow, &df, RoundNearestEven)
		if term.form == zero || term.exp < sum.exp-int64(wp)-2 {
			break
		}
		sum.Add(sum, &term, RoundNearestEven)
	}
}

// Log2 sets z to the base-2 logarithm of x.
func (z *Float) Log2(x *Float, rnd RoundingMode) int {
	if x.form == finite && isPow2Mant(x.mant) && !x.neg {
		// Exact powers of two.
		return z.SetInt64(x.exp-1, rnd)
	}
	wp := z.wprec() + 64
	var lnb, ln2b [stackWords]uint64
	ln := local(wp, lnb[:])
	ln.Log(x, RoundNearestEven)
	if ln.form != finite {
		return z.Set(&ln, rnd)
	}
	ln2 := local(wp, ln2b[:])
	ln2.Ln2(RoundNearestEven)
	ln.Div(&ln, &ln2, RoundNearestEven)
	return z.Set(&ln, rnd)
}

// Log10 sets z to the base-10 logarithm of x.
func (z *Float) Log10(x *Float, rnd RoundingMode) int {
	wp := z.wprec() + 64
	var lnb, ln10b [stackWords]uint64
	var tenb [1]uint64
	ln := local(wp, lnb[:])
	ln.Log(x, RoundNearestEven)
	if ln.form != finite {
		return z.Set(&ln, rnd)
	}
	ten := local(8, tenb[:])
	ten.SetUint64(10, RoundNearestEven)
	ln10 := local(wp, ln10b[:])
	ln10.Log(&ten, RoundNearestEven)
	ln.Div(&ln, &ln10, RoundNearestEven)
	return z.Set(&ln, rnd)
}

// Log1p sets z to log(1+x) with good accuracy near zero.
func (z *Float) Log1p(x *Float, rnd RoundingMode) int {
	switch {
	case x.form == nan:
		z.setNaN()
		return 0
	case x.form == zero:
		z.setZero(x.neg)
		return 0
	case x.form == inf && !x.neg:
		z.setInf(false)
		return 0
	}
	wp := z.wprec() + 64
	var denb, tb, rb [stackWords]uint64
	var oneb, twob [1]uint64
	one := local(8, oneb[:])
	one.SetUint64(1, RoundNearestEven)
	if x.form == finite && x.exp <= -2 {
		// |x| < 1/2: use atanh form, log1p(x) = 2·atanh(x/(2+x)).
		den := local(wp, denb[:])
		two := local(8, twob[:])
		two.SetUint64(2, RoundNearestEven)
		den.Add(&two, x, RoundNearestEven)
		t := local(wp, tb[:])
		t.Div(x, &den, RoundNearestEven)
		r := local(wp, rb[:])
		atanhSmall(&r, &t, wp)
		if r.form == finite {
			r.exp++
		}
		return z.Set(&r, rnd)
	}
	s := local(wp, denb[:])
	s.Add(&one, x, RoundNearestEven)
	r := local(wp, rb[:])
	r.Log(&s, RoundNearestEven)
	return z.Set(&r, rnd)
}
