package mpnat

import "math/bits"

// DivMod sets z = x / y and r = x mod y and returns them as (q, r). It
// panics when y is 0.
//
// A one-word divisor takes DivWordN. A longer one is normalized into
// scratch and the dividend, with a guard word for the bits shifted out of
// its top, into r; DivRemN divides them and the remainder is shifted back.
// So the call runs without allocating when z has capacity
// len(x)-len(y)+1, r len(x)+1 and scratch len(y); a one-word divisor needs
// only capacity len(x) in z and 1 in r.
func (z Nat) DivMod(r, x, y, scratch Nat) (q, rem Nat) {
	x, y = x.Norm(), y.Norm()
	if len(y) == 0 {
		panic("mpnat: division by zero")
	}
	// The divisor is normalized into scratch before the dividend is
	// shifted into r, so r may be x or y; scratch may be neither.
	if alias(scratch, x) || alias(scratch, y) || alias(scratch, z) || alias(scratch, r) {
		scratch = nil
	}
	if alias(r, z) {
		r = nil
	}
	if x.Cmp(y) < 0 {
		return z[:0], r.Set(x)
	}
	if len(y) == 1 {
		w := y[0] // read before z, which may be y, is written
		q = z.make(len(x))
		rw := DivWordN(q, x, w)
		return q.Norm(), r.SetUint64(rw)
	}
	n := len(y)
	shift := uint(bits.LeadingZeros64(y[n-1]))
	vn := scratch.make(n)
	ShlN(vn, y, shift)
	un := r.make(len(x) + 1)
	un[len(x)] = ShlN(un, x, shift)
	// un's top word holds fewer than 64-shift bits, so its top n words are
	// below vn and the quotient has no word above len(x)+1-n.
	q = z.make(len(un) - n)
	DivRemN(q, un, vn)
	rem = un[:n]
	ShrN(rem, rem, shift)
	return q.Norm(), rem.Norm()
}

// SqrtRem sets z = ⌊√x⌋ and r = x − z² and returns them as (root, rem).
//
// It shifts x left by an even number of bits, and by one more word when x
// has an odd number of words, so that SqrtRemN gets an even word count
// with a top word of at least 2^62; the root comes back shifted by half as
// much, and the remainder is recomputed from it.
//
// Neither z, r nor scratch may alias x; if one does, fresh storage is used
// instead. The call runs without allocating when z has capacity
// (len(x)+1)/2, r len(x)+1 and scratch 4·len(x)+12.
func (z Nat) SqrtRem(r, x, scratch Nat) (root, rem Nat) {
	x = x.Norm()
	if alias(z, x) {
		z = nil
	}
	if alias(r, x) || alias(r, z) {
		r = nil
	}
	if alias(scratch, x) || alias(scratch, z) || alias(scratch, r) {
		scratch = nil
	}
	if len(x) == 0 {
		return z[:0], r[:0]
	}
	n := (len(x) + 1) / 2
	odd := len(x) % 2
	a := take(&scratch, 2*n).make(2 * n)
	qs := take(&scratch, n/2+1).make(n/2 + 1)
	sq := take(&scratch, 2*n).make(2 * n)

	c := uint(bits.LeadingZeros64(x[len(x)-1])) / 2
	a[0] = 0
	ShlN(a[odd:], x, 2*c)
	z = z.make(n)
	SqrtRemN(z, a, qs)
	ShrN(z, z, c+32*uint(odd))
	z = z.Norm()

	SqrN(sq[:2*len(z)], z)
	r = r.make(len(x))
	SubN(r, x, sq[:2*len(z)].Norm())
	return z, r.Norm()
}
