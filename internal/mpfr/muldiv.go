package mpfr

import (
	"math/bits"

	"fpvm/internal/mpnat"
)

// Mul sets z to x * y rounded to z's precision and returns the ternary value.
func (z *Float) Mul(x, y *Float, rnd RoundingMode) int {
	neg := x.neg != y.neg
	switch {
	case x.form == nan || y.form == nan:
		z.setNaN()
		return 0
	case x.form == inf || y.form == inf:
		if x.form == zero || y.form == zero {
			z.setNaN() // 0 * Inf
		} else {
			z.setInf(neg)
		}
		return 0
	case x.form == zero || y.form == zero:
		z.setZero(neg)
		return 0
	}
	var buf [2 * stackWords]uint64
	m := words(buf[:], len(x.mant)+len(y.mant))
	mpnat.MulN(m, x.mant, y.mant)
	return z.setRounded(neg, m, x.unitExp()+y.unitExp(), false, rnd)
}

// Sqr sets z to x² rounded to z's precision and returns the ternary value.
// It is semantically Mul(x, x, rnd) but uses mpnat's dedicated squaring
// kernel, which computes each symmetric cross product once — the win that
// makes exponentiation's square-and-multiply ladders and the argument-
// reduction squarings in exp/atan/atanh measurably cheaper.
func (z *Float) Sqr(x *Float, rnd RoundingMode) int {
	switch x.form {
	case nan:
		z.setNaN()
		return 0
	case inf:
		z.setInf(false) // (±Inf)² = +Inf
		return 0
	case zero:
		z.setZero(false) // (±0)² = +0
		return 0
	}
	var buf [2 * stackWords]uint64
	m := words(buf[:], 2*len(x.mant))
	mpnat.SqrN(m, x.mant)
	return z.setRounded(false, m, 2*x.unitExp(), false, rnd)
}

// Div sets z to x / y rounded to z's precision and returns the ternary value.
func (z *Float) Div(x, y *Float, rnd RoundingMode) int {
	neg := x.neg != y.neg
	switch {
	case x.form == nan || y.form == nan:
		z.setNaN()
		return 0
	case x.form == inf && y.form == inf:
		z.setNaN()
		return 0
	case x.form == inf:
		z.setInf(neg)
		return 0
	case y.form == inf:
		z.setZero(neg)
		return 0
	case y.form == zero:
		if x.form == zero {
			z.setNaN() // 0 / 0
		} else {
			z.setInf(neg) // x / 0, IEEE divide-by-zero
		}
		return 0
	case x.form == zero:
		z.setZero(neg)
		return 0
	}
	// Whole zero words at the bottom of y's mantissa (a small integer held
	// at full precision has nearly all of them) only scale the quotient:
	// they come off the divisor, which shortens the division.
	k := 0
	for y.mant[k] == 0 {
		k++
	}
	den := y.mant[k:]
	// Divide u = x's mantissa, shifted to the top of nv+qn words, by the
	// normalized divisor v of nv words: the quotient is at least B^qn/2,
	// so qn words carry prec+1 bits, and the remainder is the sticky bit.
	prec := int(z.effPrec())
	nv := len(den)
	qn := max((prec+64)/64, len(x.mant)-nv)
	var vbuf [stackWords]uint64
	var ubuf [2*stackWords + 1]uint64
	var qbuf [stackWords + 2]uint64
	v := words(vbuf[:], nv)
	d := uint(bits.LeadingZeros64(den[nv-1]))
	mpnat.ShlN(v, den, d)
	u := words(ubuf[:], nv+qn)
	t := 64*(nv+qn) - nbits(x.mant)
	shlInto(u, x.mant, t)
	q := words(qbuf[:], qn+1)
	q[qn] = mpnat.DivRemN(q[:qn], u, v)
	e := x.unitExp() - int64(t) - y.unitExp() - 64*int64(k) + int64(d)
	return z.setRounded(neg, q, e, !isZeroN(u[:nv]), rnd)
}

// Sqrt sets z to the square root of x rounded to z's precision and returns
// the ternary value. Sqrt of a negative number is NaN; Sqrt(-0) is -0.
func (z *Float) Sqrt(x *Float, rnd RoundingMode) int {
	switch {
	case x.form == nan:
		z.setNaN()
		return 0
	case x.form == zero:
		z.setZero(x.neg)
		return 0
	case x.neg:
		z.setNaN()
		return 0
	case x.form == inf:
		z.setInf(false)
		return 0
	}
	// Shift x's mantissa to the top of 2n words, leaving the exponent even
	// and the top word at least 2^62, so that the n-word root carries at
	// least prec+1 bits; the remainder is the sticky bit.
	prec := int(z.effPrec())
	bx := nbits(x.mant)
	n := max((prec+64)/64, (bx+128)/128)
	t := 128*n - bx
	e := x.unitExp()
	if (e-int64(t))&1 != 0 {
		t--
	}
	var abuf [2*stackWords + 2]uint64
	var sbuf [stackWords + 1]uint64
	var scratch [stackWords/2 + 1]uint64
	a := words(abuf[:], 2*n)
	shlInto(a, x.mant, t)
	root := words(sbuf[:], n)
	rh := mpnat.SqrtRemN(root, a, words(scratch[:], n/2+1))
	return z.setRounded(false, root, (e-int64(t))/2, rh != 0 || !isZeroN(a[:n]), rnd)
}

// FMA sets z to x*y + w with a single rounding (fused multiply-add) and
// returns the ternary value.
func (z *Float) FMA(x, y, w *Float, rnd RoundingMode) int {
	// Specials: delegate to Mul semantics for the product, then Add.
	if x.form != finite || y.form != finite || w.form != finite {
		prodPrec := x.effPrec() + y.effPrec()
		prod := New(uint(prodPrec))
		prod.Mul(x, y, RoundNearestEven) // exact or special
		return z.Add(prod, w, rnd)
	}
	negP := x.neg != y.neg
	var buf [2 * stackWords]uint64
	mp := words(buf[:], len(x.mant)+len(y.mant))
	mpnat.MulN(mp, x.mant, y.mant) // exact product
	if mp[len(mp)-1] == 0 {
		mp = mp[:len(mp)-1]
	}
	ep := x.unitExp() + y.unitExp()
	if w.form == zero {
		return z.setRounded(negP, mp, ep, false, rnd)
	}
	return z.addMant(negP, mp, ep, w.neg, w.mant, w.unitExp(), rnd)
}

// Mul2Exp sets z to x * 2^n exactly (up to z's precision) and returns the
// ternary value.
func (z *Float) Mul2Exp(x *Float, n int64, rnd RoundingMode) int {
	t := z.Set(x, rnd)
	if z.form == finite {
		z.exp += n
	}
	return t
}

// stackWords is the mantissa size, in words, up to which the operations
// keep their scratch (and the transcendentals their temporaries) on the
// stack: 8 words hold 512 bits, which covers 200-bit values and the 264-,
// 296- and 328-bit working precisions of the transcendentals at 200 bits.
// Wider mantissas run the same code with scratch from the heap.
const stackWords = 8

// words returns buf[:n] when n fits in buf, and fresh storage otherwise.
func words(buf []uint64, n int) []uint64 {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]uint64, n)
}

// nbits returns the bit length of m, whose top word must be nonzero.
func nbits(m []uint64) int {
	return 64*(len(m)-1) + bits.Len64(m[len(m)-1])
}

// shlInto sets z = m << t, for z long enough to hold it; the words of z
// below the shifted m are cleared.
func shlInto(z, m []uint64, t int) {
	tw := t / 64
	clear(z[:tw])
	out := mpnat.ShlN(z[tw:tw+len(m)], m, uint(t%64))
	if tw+len(m) < len(z) {
		z[tw+len(m)] = out
		clear(z[tw+len(m)+1:])
	}
}

// isZeroN reports whether every word of m is zero.
func isZeroN(m []uint64) bool {
	for _, w := range m {
		if w != 0 {
			return false
		}
	}
	return true
}
