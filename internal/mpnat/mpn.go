package mpnat

import (
	"math"
	"math/bits"
)

// AddN sets z[:len(x)] = x + y for len(x) >= len(y) and returns the carry
// out of the top word (0 or 1). z may be x or y.
func AddN(z, x, y []uint64) uint64 {
	z = z[:len(x)]
	y = y[:len(y):len(y)]
	var c uint64
	for i, w := range y {
		z[i], c = bits.Add64(x[i], w, c)
	}
	for i := len(y); i < len(x); i++ {
		z[i], c = bits.Add64(x[i], 0, c)
	}
	return c
}

// SubN sets z[:len(x)] = x - y for len(x) >= len(y) and returns the borrow
// out of the top word (0 or 1); on a borrow z holds x - y + 2^(64·len(x)).
// z may be x or y.
func SubN(z, x, y []uint64) uint64 {
	z = z[:len(x)]
	y = y[:len(y):len(y)]
	var b uint64
	for i, w := range y {
		z[i], b = bits.Sub64(x[i], w, b)
	}
	for i := len(y); i < len(x); i++ {
		z[i], b = bits.Sub64(x[i], 0, b)
	}
	return b
}

// AddWordN sets z[:len(x)] = x + w and returns the carry out. z may be x.
func AddWordN(z, x []uint64, w uint64) uint64 {
	z = z[:len(x)]
	c := w
	for i, xi := range x {
		z[i], c = bits.Add64(xi, c, 0)
	}
	return c
}

// SubWordN sets z[:len(x)] = x - w and returns the borrow out. z may be x.
func SubWordN(z, x []uint64, w uint64) uint64 {
	z = z[:len(x)]
	b := w
	for i, xi := range x {
		z[i], b = bits.Sub64(xi, b, 0)
	}
	return b
}

// CmpN compares x and y, which must have the same length, returning -1, 0
// or +1.
func CmpN(x, y []uint64) int {
	y = y[:len(x)]
	for i := len(x) - 1; i >= 0; i-- {
		switch {
		case x[i] < y[i]:
			return -1
		case x[i] > y[i]:
			return 1
		}
	}
	return 0
}

// ShlN sets z[:len(x)] = x << s for s < 64 and returns the bits shifted out
// of the top word, in the low s bits of the result. It writes from the top
// down, so z may be x, or start at a higher word of x's array.
func ShlN(z, x []uint64, s uint) uint64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	z = z[:n]
	if s == 0 {
		copy(z, x)
		return 0
	}
	t := 64 - s
	out := x[n-1] >> t
	for i := n - 1; i > 0; i-- {
		z[i] = x[i]<<s | x[i-1]>>t
	}
	z[0] = x[0] << s
	return out
}

// ShrN sets z[:len(x)] = x >> s for s < 64 and returns the bits shifted out
// of the bottom word, in the high s bits of the result. It writes from the
// bottom up, so z may be x, or start at a lower word of x's array.
func ShrN(z, x []uint64, s uint) uint64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	z = z[:n]
	if s == 0 {
		copy(z, x)
		return 0
	}
	t := 64 - s
	out := x[0] << t
	for i := 0; i < n-1; i++ {
		z[i] = x[i]>>s | x[i+1]<<t
	}
	z[n-1] = x[n-1] >> s
	return out
}

// mulWordN sets z[:len(x)] = x·w and returns the high word of the product.
// z may be x.
func mulWordN(z, x []uint64, w uint64) uint64 {
	z = z[:len(x)]
	var carry uint64
	for i, xi := range x {
		hi, lo := bits.Mul64(xi, w)
		var c uint64
		z[i], c = bits.Add64(lo, carry, 0)
		carry = hi + c
	}
	return carry
}

// addMulWordN sets z[:len(x)] += x·w and returns the word carried out.
func addMulWordN(z, x []uint64, w uint64) uint64 {
	z = z[:len(x)]
	var carry uint64
	for i, xi := range x {
		hi, lo := bits.Mul64(xi, w)
		lo, c := bits.Add64(lo, z[i], 0)
		hi += c
		z[i], c = bits.Add64(lo, carry, 0)
		carry = hi + c
	}
	return carry
}

// subMulWordN sets z[:len(x)] -= x·w and returns the word borrowed out.
func subMulWordN(z, x []uint64, w uint64) uint64 {
	z = z[:len(x)]
	var carry uint64
	for i, xi := range x {
		hi, lo := bits.Mul64(xi, w)
		lo, c := bits.Add64(lo, carry, 0)
		hi += c
		var b uint64
		z[i], b = bits.Sub64(z[i], lo, 0)
		carry = hi + b
	}
	return carry
}

// karatsubaThreshold is the word count above which MulN and SqrN switch
// from schoolbook to Karatsuba. Chosen empirically; the exact value only
// matters for large-precision performance, not correctness.
const karatsubaThreshold = 24

// MulN sets z = x·y for len(z) == len(x)+len(y) and len(x), len(y) >= 1.
// z must not overlap x or y.
func MulN(z, x, y []uint64) {
	if len(x) >= karatsubaThreshold && len(y) >= karatsubaThreshold {
		mulKaratsuba(z, x, y)
		return
	}
	if len(x) < len(y) {
		x, y = y, x // the longer operand in the inner loop
	}
	n := len(x)
	z = z[:n+len(y)]
	z[n] = mulWordN(z[:n], x, y[0])
	for i := 1; i < len(y); i++ {
		z[n+i] = addMulWordN(z[i:n+i], x, y[i])
	}
}

// SqrN sets z = x² for len(z) == 2·len(x) and len(x) >= 1. z must not
// overlap x.
//
// It computes each cross product x[i]·x[j] (i < j) once and doubles the
// triangle before adding the diagonal squares, roughly halving the multiply
// work of MulN(z, x, x); GMP's mpn layer makes the same specialization
// (mpn_sqr).
func SqrN(z, x []uint64) {
	n := len(x)
	if n >= karatsubaThreshold {
		sqrKaratsuba(z, x)
		return
	}
	z = z[:2*n]
	// Upper triangle: z[1:2n-1] = Σ_{i<j} x[i]x[j]·B^(i+j-1).
	z[0], z[2*n-1] = 0, 0
	if n > 1 {
		z[n] = mulWordN(z[1:n], x[1:], x[0])
		for i := 1; i < n-1; i++ {
			z[n+i] = addMulWordN(z[2*i+1:n+i], x[i+1:], x[i])
		}
	}
	// Double the triangle, then add the diagonal Σ x[i]²·B^(2i).
	z[2*n-1] = ShlN(z[:2*n-1], z[:2*n-1], 1)
	var c uint64
	for i, xi := range x {
		hi, lo := bits.Mul64(xi, xi)
		z[2*i], c = bits.Add64(z[2*i], lo, c)
		z[2*i+1], c = bits.Add64(z[2*i+1], hi, c)
	}
	// No carry leaves the top word: (B^n - 1)² < B^(2n).
}

// DivWordN sets q[:len(x)] = x / w for a nonzero word w and returns the
// remainder. q may be x.
func DivWordN(q, x []uint64, w uint64) uint64 {
	q = q[:len(x)]
	var r uint64
	for i := len(x) - 1; i >= 0; i-- {
		q[i], r = bits.Div64(r, x[i], w)
	}
	return r
}

// DivRemN divides u by v, which must be normalized (top bit of its top
// word set) and no longer than u. It writes the low len(u)-len(v) quotient
// words into q, returns the top quotient word (0 or 1), and leaves the
// remainder in u[:len(v)]; u[len(v):] is left unspecified. q must not
// overlap u or v.
//
// It is Knuth's Algorithm D (TAOCP vol. 2, §4.3.1) without the
// normalization steps D1 and D8, which the caller does when it needs them.
func DivRemN(q, u, v []uint64) uint64 {
	n := len(v)
	m := len(u) - n
	q = q[:m]
	var qh uint64
	if CmpN(u[m:], v) >= 0 {
		SubN(u[m:], u[m:], v)
		qh = 1
	}
	vtop := v[n-1]
	if n == 1 {
		r := u[m]
		for j := m - 1; j >= 0; j-- {
			q[j], r = bits.Div64(r, u[j], vtop)
		}
		u[0] = r
		return qh
	}
	vnext := v[n-2]
	for j := m - 1; j >= 0; j-- {
		// The window u[j:j+n+1] is below v·B, so its quotient digit fits a
		// word. Estimate it from the top two words (D3) and refine with
		// the third, which leaves it at most one too large.
		u2, u1 := u[j+n], u[j+n-1]
		qhat := ^uint64(0)
		if u2 != vtop {
			var rhat uint64
			qhat, rhat = bits.Div64(u2, u1, vtop)
			u0 := u[j+n-2]
			for {
				hi, lo := bits.Mul64(qhat, vnext)
				if hi < rhat || hi == rhat && lo <= u0 {
					break
				}
				qhat--
				var c uint64
				if rhat, c = bits.Add64(rhat, vtop, 0); c != 0 {
					break
				}
			}
		}
		// D4–D6: multiply and subtract, adding v back if it overshot.
		b := subMulWordN(u[j:j+n], v, qhat)
		var under uint64
		u[j+n], under = bits.Sub64(u2, b, 0)
		if under != 0 {
			qhat--
			u[j+n] += AddN(u[j:j+n], u[j:j+n], v)
		}
		q[j] = qhat
	}
	return qh
}

// SqrtRemN sets s = ⌊√a⌋ for len(a) == 2·len(s) and a normalized so that
// its top word is at least 2^62. It leaves the remainder a - s² in a[:len(s)]
// and returns the bit above it (0 or 1); a[len(s):] is left unspecified.
// scratch must hold len(s)/2+1 words. s, a and scratch must not overlap.
//
// The root is computed by precision doubling (Zimmermann, "Karatsuba Square
// Root", INRIA RR-3805, 1999), as GMP's mpn_sqrtrem does: the root of the
// top half gives the top half of the root, one division by it gives the
// bottom half, and one squaring and subtraction give the remainder. The
// one-word root at the bottom of the recursion is seeded from math.Sqrt.
func SqrtRemN(s, a, scratch []uint64) uint64 {
	n := len(s)
	if n == 1 {
		var rh uint64
		s[0], a[0], rh = sqrtRem2(a[1], a[0])
		return rh
	}
	// a = A·B^(2l) + a1·B^l + a0 with A of 2h words; β = B^l.
	l := n / 2
	h := n - l
	sh := s[l:]
	// (s', r') = SqrtRem(A): r' is rh·B^h + a[2l:n+l].
	rh := SqrtRemN(sh, a[2*l:], scratch)
	if rh != 0 {
		// r' ≤ 2s', so r' - s' fits h words; the borrow takes rh back.
		SubN(a[2*l:n+l], a[2*l:n+l], sh)
	}
	// (q, u) = DivRem(r'·β + a1, 2s'), computed as a division by s' and a
	// halving: the numerator is a[l:n+l] plus rh·s'·β taken out above.
	ql := scratch[:l]
	qtop := rh + DivRemN(ql, a[l:n+l], sh)
	odd := ql[0] & 1
	ShrN(s[:l], ql, 1)
	s[l-1] |= qtop << 63
	qc := qtop >> 1 // q = s[:l] + qc·β, and q ≤ β
	// u = (numerator mod s') + s' when the quotient by s' was odd; it is
	// rc·B^n + a[l:n] (with rc the carry).
	var rc int64
	if odd != 0 {
		rc = int64(AddN(a[l:n], a[l:n], sh))
	}
	// r = u·β + a0 - q², in a[:n] with rc above it.
	SqrN(a[n:n+2*l], s[:l])
	b := SubN(a[:2*l], a[:2*l], a[n:n+2*l]) + qc
	if h == l {
		rc -= int64(b)
	} else {
		rc -= int64(SubWordN(a[2*l:n], a[2*l:n], b))
	}
	sc := AddWordN(sh, sh, qc)
	if rc < 0 {
		// The root is one too large: r += 2s - 1, s -= 1.
		rc += int64(AddN(a[:n], a[:n], s[:n]) + AddN(a[:n], a[:n], s[:n]) + 2*sc)
		rc -= int64(SubWordN(a[:n], a[:n], 1))
		SubWordN(s, s, 1)
	}
	return uint64(rc)
}

// sqrtRem2 returns s = ⌊√a⌋ and the remainder a - s² as (rlo, rhi) for the
// two-word a = hi·2^64 + lo with hi >= 2^62, so s has its top bit set.
func sqrtRem2(hi, lo uint64) (s, rlo, rhi uint64) {
	// math.Sqrt is within 2^12 of √a (hi alone fixes it to 2^-52), so the
	// seed plus 2^13 is above the root and below 2^64 unless clamped.
	s = math.MaxUint64
	if f := math.Sqrt(float64(hi) * 0x1p64); f < 0x1p64-0x1p14 {
		s = uint64(f) + 1<<13
	}
	// One Newton step from above lands on ⌊√a⌋ or one more; hi < s keeps
	// the quotient in a word and fails only when s = 2^64-1 is the root.
	if hi < s {
		q, _ := bits.Div64(hi, lo, s)
		sum, c := bits.Add64(s, q, 0)
		s = sum>>1 | c<<63
	}
	for {
		sqh, sql := bits.Mul64(s, s)
		if sqh < hi || sqh == hi && sql <= lo {
			var b uint64
			rlo, b = bits.Sub64(lo, sql, 0)
			rhi = hi - sqh - b
			return s, rlo, rhi
		}
		s--
	}
}
