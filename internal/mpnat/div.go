package mpnat

import "math/bits"

// DivMod sets z = x / y and r = x mod y and returns them as (q, r). It
// panics when y is 0.
//
// r doubles as the working dividend of Knuth's algorithm and scratch holds
// the normalized divisor, so the call runs without allocating when z has
// capacity len(x)-len(y)+1, r len(x)+1 and scratch len(y).
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
		q, rw := z.divModWord(x, w)
		return q, r.SetUint64(rw)
	}
	return z.divModKnuth(r, x, y, scratch)
}

// divModWord sets z = x / w and returns z and the remainder. z may be x.
func (z Nat) divModWord(x Nat, w uint64) (Nat, uint64) {
	z = z.make(len(x))
	var r uint64
	for i := len(x) - 1; i >= 0; i-- {
		z[i], r = bits.Div64(r, x[i], w)
	}
	return z.Norm(), r
}

// divModKnuth implements Knuth's Algorithm D (TAOCP vol. 2, 4.3.1) for
// multi-limb division, for normalized x >= y with len(y) >= 2.
func (z Nat) divModKnuth(r, u, v, scratch Nat) (q, rem Nat) {
	// D1: normalize so the top limb of v has its high bit set, and give the
	// dividend a guard limb for the bits shifted out of its top.
	n := len(v)
	shift := uint(bits.LeadingZeros64(v[n-1]))
	vn := scratch.make(n)
	shlVU(vn, v, shift)
	un := r.make(len(u) + 1)
	un[len(u)] = shlVU(un, u, shift)
	m := len(u) - n
	q = z.make(m + 1)

	for j := m; j >= 0; j-- {
		// D3: estimate qhat.
		var qhat, rhat uint64
		u2 := un[j+n]
		u1 := un[j+n-1]
		if u2 >= vn[n-1] {
			qhat = ^uint64(0)
		} else {
			qhat, rhat = bits.Div64(u2, u1, vn[n-1])
			// Refine using the second-highest divisor limb.
			u0 := un[j+n-2]
			for {
				hi, lo := bits.Mul64(qhat, vn[n-2])
				if hi < rhat || (hi == rhat && lo <= u0) {
					break
				}
				qhat--
				var c uint64
				rhat, c = bits.Add64(rhat, vn[n-1], 0)
				if c != 0 {
					break // rhat overflowed base; qhat is now small enough
				}
			}
		}
		// D4: multiply and subtract un[j..j+n] -= qhat * vn.
		var borrow, mulCarry uint64
		for i := 0; i < n; i++ {
			hi, lo := bits.Mul64(qhat, vn[i])
			lo, c := bits.Add64(lo, mulCarry, 0)
			mulCarry = hi + c
			un[j+i], borrow = bits.Sub64(un[j+i], lo, borrow)
		}
		var b uint64
		un[j+n], b = bits.Sub64(un[j+n], mulCarry, borrow)
		// D5/D6: if we subtracted too much, add back one vn.
		if b != 0 {
			qhat--
			var carry uint64
			for i := 0; i < n; i++ {
				un[j+i], carry = bits.Add64(un[j+i], vn[i], carry)
			}
			un[j+n] += carry
		}
		q[j] = qhat
	}
	// D8: denormalize the remainder in place.
	rem = un[:n]
	return q.Norm(), rem.Shr(rem, shift)
}

// SqrtRem sets z = ⌊√x⌋ and r = x − z² and returns them as (root, rem).
//
// Newton's iteration g ← ⌊(g + ⌊x/g⌋)/2⌋ decreases strictly to ⌊√x⌋ from
// any start g ≥ ⌊√x⌋; it stops at a step that does not decrease, or at one
// whose decrease shows the new g is within one of the root. The start is
// seeded from the top 61–62 bits of x: with x = t·2^(2k) + l, l < 2^(2k),
// t < 2^62,
//
//	√x < √(t+1)·2^k ≤ (⌊√t⌋ + 1)·2^k,
//
// so g = (isqrt64(t)+1)·2^k is above the root by a relative 2^-30 at most
// and each step doubles the correct bits: three divisions for a 400-bit x,
// where the 2^⌈bitlen/2⌉ start took about ten.
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
	switch len(x) {
	case 0:
		return z[:0], r[:0]
	case 1:
		s := isqrt64(x[0])
		return z.SetUint64(s), r.SetUint64(x[0] - s*s)
	}

	h := (len(x)+1)/2 + 1 // words of any guess, and of the root
	g := take(&scratch, h+1)
	next := take(&scratch, h+1)
	quo := take(&scratch, len(x)+1)
	vn := take(&scratch, h+1)
	sq := take(&scratch, 2*h+2)

	sh := uint(x.BitLen()-62+1) &^ 1 // even, leaving 61 or 62 bits in t
	g = g.SetUint64(isqrt64(topWord(x, sh)) + 1)
	g = g.Shl(g, sh/2)
	for {
		quo, r = quo.DivMod(r, x, g, vn)
		next = next.Add(g, quo)
		next = next.Shr(next, 1)
		if next.Cmp(g) >= 0 {
			break // no decrease: g = ⌊√x⌋
		}
		// next ≤ √x + 2d²/g for the decrease d = g − next, so once 2d² < g,
		// next is ⌊√x⌋ or ⌊√x⌋+1 and the square check below settles it.
		d := sq.Sub(g, next)
		done := 2*d.BitLen()+2 <= g.BitLen()
		g, next = next, g
		if done {
			break
		}
	}
	for sq = sq.Sqr(g); sq.Cmp(x) > 0; sq = sq.Sqr(g) {
		g = g.Sub(g, Nat{1})
	}
	return z.Set(g), r.Sub(x, sq)
}

// topWord returns bits [s, s+64) of x.
func topWord(x Nat, s uint) uint64 {
	i, off := int(s/64), s%64
	w := x[i] >> off
	if off != 0 && i+1 < len(x) {
		w |= x[i+1] << (64 - off)
	}
	return w
}

// isqrt64 returns ⌊√v⌋.
func isqrt64(v uint64) uint64 {
	if v == 0 {
		return 0
	}
	r := uint64(1) << ((bits.Len64(v) + 1) / 2)
	for {
		n := (r + v/r) / 2
		if n >= r {
			for r*r > v {
				r--
			}
			return r
		}
		r = n
	}
}
