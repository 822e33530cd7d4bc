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
	m := len(x)
	if m == 0 {
		return z[:0]
	}
	z = z.make(m + 1)
	z[m] = AddN(z, x, y)
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
	z = z.make(len(x))
	SubN(z, x, y)
	return z.Norm()
}

// Shl sets z = x << s and returns z.
func (z Nat) Shl(x Nat, s uint) Nat {
	x = x.Norm()
	m := len(x)
	if m == 0 {
		return z[:0]
	}
	limbs := int(s / 64)
	z = z.make(m + limbs + 1)
	// ShlN writes from the top down, so z may be x.
	z[m+limbs] = ShlN(z[limbs:], x, s%64)
	clear(z[:limbs])
	return z.Norm()
}

// Shr sets z = x >> s (bits shifted out are discarded) and returns z.
func (z Nat) Shr(x Nat, s uint) Nat {
	x = x.Norm()
	limbs := int(s / 64)
	if limbs >= len(x) {
		return z[:0]
	}
	z = z.make(len(x) - limbs)
	// ShrN writes from the bottom up, so z may be x.
	ShrN(z, x[limbs:], s%64)
	return z.Norm()
}

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
	MulN(z, x, y)
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
	z[m] = mulWordN(z, x, w)
	return z.Norm()
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
	if len(x0) > 0 && len(y0) > 0 {
		MulN(z[:len(x0)+len(y0)], x0, y0)
	}
	if len(x1) > 0 && len(y1) > 0 {
		MulN(z[2*half:2*half+len(x1)+len(y1)], x1, y1)
	}
	z1 := Mul(Add(x0, x1), Add(y0, y1))
	z1 = z1.Sub(z1, z[:2*half])
	z1 = z1.Sub(z1, z[2*half:])
	addAt(z, z1, half)
}

// Sqr sets z = x * x and returns z, through SqrN's squaring kernel.
func (z Nat) Sqr(x Nat) Nat {
	x = x.Norm()
	if len(x) == 0 {
		return z[:0]
	}
	if alias(z, x) {
		z = nil
	}
	z = z.make(2 * len(x))
	SqrN(z, x)
	return z.Norm()
}

// sqrKaratsuba sets z = x² for len(z) == 2·len(x), recursing with three
// squarings instead of three general multiplies:
// (x1·B + x0)² = x1²·B² + ((x0+x1)² − x0² − x1²)·B + x0².
func sqrKaratsuba(z, x Nat) {
	half := (len(x) + 1) / 2
	x0, x1 := split(x, half)

	clear(z)
	if len(x0) > 0 {
		SqrN(z[:2*len(x0)], x0)
	}
	if len(x1) > 0 {
		SqrN(z[2*half:2*half+2*len(x1)], x1)
	}
	z1 := Sqr(Add(x0, x1))
	z1 = z1.Sub(z1, z[:2*half])
	z1 = z1.Sub(z1, z[2*half:])
	addAt(z, z1, half)
}
