package mpnat

import "math/bits"

// Set sets z = x and returns z.
func (z Nat) Set(x Nat) Nat {
	x = x.Norm()
	z = z.make(len(x))
	copy(z, x)
	return z
}

// SetUint64 sets z = w and returns z.
func (z Nat) SetUint64(w uint64) Nat {
	if w == 0 {
		return z[:0]
	}
	z = z.make(1)
	z[0] = w
	return z
}

// Add sets z = x + y and returns z.
func (z Nat) Add(x, y Nat) Nat {
	x, y = x.Norm(), y.Norm()
	if len(x) < len(y) {
		x, y = y, x
	}
	m, n := len(x), len(y)
	if m == 0 {
		return z[:0]
	}
	z = z.make(m + 1)
	var c uint64
	for i := 0; i < n; i++ {
		z[i], c = bits.Add64(x[i], y[i], c)
	}
	for i := n; i < m; i++ {
		z[i], c = bits.Add64(x[i], 0, c)
	}
	z[m] = c
	return z.Norm()
}

// AddWord sets z = x + w and returns z.
func (z Nat) AddWord(x Nat, w uint64) Nat {
	return z.Add(x, Nat{w})
}

// Sub sets z = x - y and returns z. It panics if y > x.
func (z Nat) Sub(x, y Nat) Nat {
	x, y = x.Norm(), y.Norm()
	if x.Cmp(y) < 0 {
		panic("mpnat: Sub underflow")
	}
	m, n := len(x), len(y)
	z = z.make(m)
	var b uint64
	for i := 0; i < n; i++ {
		z[i], b = bits.Sub64(x[i], y[i], b)
	}
	for i := n; i < m; i++ {
		z[i], b = bits.Sub64(x[i], 0, b)
	}
	return z.Norm()
}

// Shl sets z = x << s and returns z.
func (z Nat) Shl(x Nat, s uint) Nat {
	x = x.Norm()
	m := len(x)
	if m == 0 {
		return z[:0]
	}
	limbs, off := int(s/64), s%64
	n := m + limbs
	var top uint64
	if off != 0 {
		top = x[m-1] >> (64 - off)
	}
	if top != 0 {
		n++
	}
	z = z.make(n)
	// Write from the top down, so z may be x.
	if off == 0 {
		copy(z[limbs:], x)
	} else {
		if top != 0 {
			z[n-1] = top
		}
		for i := m - 1; i > 0; i-- {
			z[limbs+i] = x[i]<<off | x[i-1]>>(64-off)
		}
		z[limbs] = x[0] << off
	}
	clear(z[:limbs])
	return z
}

// Shr sets z = x >> s (bits shifted out are discarded) and returns z.
func (z Nat) Shr(x Nat, s uint) Nat {
	x = x.Norm()
	m := len(x)
	limbs, off := int(s/64), s%64
	if limbs >= m {
		return z[:0]
	}
	n := m - limbs
	if off != 0 && x[m-1]>>off == 0 {
		n-- // the top word shifts out entirely
	}
	z = z.make(n)
	// Write from the bottom up, so z may be x.
	if off == 0 {
		copy(z, x[limbs:])
		return z
	}
	for i := 0; i < n; i++ {
		w := x[limbs+i] >> off
		if limbs+i+1 < m {
			w |= x[limbs+i+1] << (64 - off)
		}
		z[i] = w
	}
	return z
}

// shlVU sets z[:len(x)] = x << s for s < 64 and returns the bits shifted out
// of the top word. z may be x.
func shlVU(z, x Nat, s uint) uint64 {
	if s == 0 {
		copy(z, x)
		return 0
	}
	if len(x) == 0 {
		return 0
	}
	c := x[len(x)-1] >> (64 - s)
	for i := len(x) - 1; i > 0; i-- {
		z[i] = x[i]<<s | x[i-1]>>(64-s)
	}
	z[0] = x[0] << s
	return c
}

// karatsubaThreshold is the limb count above which Mul switches from
// schoolbook multiplication to Karatsuba. Chosen empirically; the exact
// value only matters for large-precision performance, not correctness.
const karatsubaThreshold = 24

// Mul sets z = x * y and returns z.
func (z Nat) Mul(x, y Nat) Nat {
	x, y = x.Norm(), y.Norm()
	if len(x) == 0 || len(y) == 0 {
		return z[:0]
	}
	if alias(z, x) || alias(z, y) {
		z = nil
	}
	z = z.make(len(x) + len(y))
	mulInto(z, x, y)
	return z.Norm()
}

// MulWord sets z = x * w and returns z.
func (z Nat) MulWord(x Nat, w uint64) Nat {
	x = x.Norm()
	m := len(x)
	if m == 0 || w == 0 {
		return z[:0]
	}
	z = z.make(m + 1)
	var carry uint64
	for i := 0; i < m; i++ {
		hi, lo := bits.Mul64(x[i], w)
		var c uint64
		z[i], c = bits.Add64(lo, carry, 0)
		carry = hi + c
	}
	z[m] = carry
	return z.Norm()
}

// mulSchoolbook sets z = x * y for len(z) == len(x)+len(y).
func mulSchoolbook(z, x, y Nat) {
	clear(z)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		var carry uint64
		for j, yj := range y {
			hi, lo := bits.Mul64(xi, yj)
			s, c1 := bits.Add64(lo, z[i+j], 0)
			s, c2 := bits.Add64(s, carry, 0)
			z[i+j] = s
			carry = hi + c1 + c2
		}
		z[i+len(y)] += carry
	}
}

// mulInto sets z = x * y for len(z) == len(x)+len(y). z must not alias x
// or y. It writes only into z, which keeps its storage off the heap.
func mulInto(z, x, y Nat) {
	if len(x) < karatsubaThreshold || len(y) < karatsubaThreshold {
		mulSchoolbook(z, x, y)
		return
	}
	mulKaratsuba(z, x, y)
}

// split returns the low half words of x and the rest, each normalized.
func split(x Nat, half int) (lo, hi Nat) {
	if len(x) <= half {
		return x.Norm(), nil
	}
	return x[:half].Norm(), x[half:].Norm()
}

// addAt adds x into z at word offset i: z += x·B^i. The sum must fit in z.
func addAt(z, x Nat, i int) {
	var c uint64
	for j, w := range x {
		z[i+j], c = bits.Add64(z[i+j], w, c)
	}
	for k := i + len(x); c != 0; k++ {
		z[k], c = bits.Add64(z[k], 0, c)
	}
}

// mulKaratsuba sets z = x*y for len(z) == len(x)+len(y), computing
//
//	x·y = z2·B^(2h) + ((x0+x1)(y0+y1) − z0 − z2)·B^h + z0
//
// with x = x1·B^h + x0 and y likewise. z0 and z2 are computed in place in
// the low and high parts of z; only the middle product uses temporaries.
func mulKaratsuba(z, x, y Nat) {
	half := (max(len(x), len(y)) + 1) / 2
	x0, x1 := split(x, half)
	y0, y1 := split(y, half)

	clear(z)
	mulInto(z[:len(x0)+len(y0)], x0, y0)
	if len(x1) > 0 && len(y1) > 0 {
		mulInto(z[2*half:2*half+len(x1)+len(y1)], x1, y1)
	}
	z1 := Mul(Add(x0, x1), Add(y0, y1))
	z1 = z1.Sub(z1, z[:2*half])
	z1 = z1.Sub(z1, z[2*half:])
	addAt(z, z1, half)
}

// Sqr sets z = x * x and returns z. It uses a dedicated squaring kernel: the
// cross partial products x[i]*x[j] (i != j) are symmetric, so they are
// computed once and doubled, roughly halving the multiply work relative to
// Mul(x, x). GMP's mpn layer makes the same specialization (mpn_sqr), and
// mpfr's exponentiation loops lean on it heavily.
func (z Nat) Sqr(x Nat) Nat {
	x = x.Norm()
	if len(x) == 0 {
		return z[:0]
	}
	if alias(z, x) {
		z = nil
	}
	z = z.make(2 * len(x))
	sqrInto(z, x)
	return z.Norm()
}

// sqrInto sets z = x² for len(z) == 2·len(x). z must not alias x.
func sqrInto(z, x Nat) {
	if len(x) < karatsubaThreshold {
		sqrSchoolbook(z, x)
		return
	}
	sqrKaratsuba(z, x)
}

// sqrSchoolbook sets z = x² for len(z) == 2·len(x) via the
// triangle-and-double decomposition:
//
//	x² = 2 * Σ_{i<j} x[i]x[j]·B^(i+j)  +  Σ_i x[i]²·B^(2i)
//
// Only the strictly-upper triangle of cross products is materialized; the
// doubling is a one-bit shift of the accumulated triangle; the diagonal of
// 128-bit squares is added last.
func sqrSchoolbook(z, x Nat) {
	n := len(x)
	clear(z)

	// Upper triangle: z += x[i] * x[j] at limb offset i+j for every j > i.
	for i := 0; i < n-1; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		var carry uint64
		for j := i + 1; j < n; j++ {
			hi, lo := bits.Mul64(xi, x[j])
			s, c1 := bits.Add64(lo, z[i+j], 0)
			s, c2 := bits.Add64(s, carry, 0)
			z[i+j] = s
			carry = hi + c1 + c2
		}
		z[i+n] += carry
	}

	// Double the triangle: z <<= 1 in place.
	var top uint64
	for i := range z {
		w := z[i]
		z[i] = w<<1 | top
		top = w >> 63
	}

	// Diagonal: z += Σ x[i]² at limb offset 2i.
	var carry uint64
	for i := 0; i < n; i++ {
		hi, lo := bits.Mul64(x[i], x[i])
		s, c := bits.Add64(z[2*i], lo, carry)
		z[2*i] = s
		s, c2 := bits.Add64(z[2*i+1], hi, c)
		z[2*i+1] = s
		carry = c2
	}
	// carry can only propagate into limbs above 2n-1 if the square
	// overflowed 2n limbs, which it cannot: (B^n - 1)² < B^(2n).
}

// sqrKaratsuba sets z = x² for len(z) == 2·len(x), recursing with three
// squarings instead of three general multiplies:
// (x1·B + x0)² = x1²·B² + ((x0+x1)² − x0² − x1²)·B + x0².
func sqrKaratsuba(z, x Nat) {
	half := (len(x) + 1) / 2
	x0, x1 := split(x, half)

	clear(z)
	sqrInto(z[:2*len(x0)], x0)
	sqrInto(z[2*half:2*half+2*len(x1)], x1)
	z1 := Sqr(Add(x0, x1))
	z1 = z1.Sub(z1, z[:2*half])
	z1 = z1.Sub(z1, z[2*half:])
	addAt(z, z1, half)
}
