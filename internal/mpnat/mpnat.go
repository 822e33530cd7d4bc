// Package mpnat implements arbitrary-precision natural-number (unsigned
// integer) arithmetic on 64-bit limbs. It is the low-level kernel beneath
// package mpfr, playing the role GMP's mpn layer plays beneath GNU MPFR.
//
// A Nat is a little-endian limb slice: word i holds bits [64*i, 64*i+64) of
// the value. The canonical form has no trailing zero limbs; the zero value
// (nil or empty slice) represents 0. Every operation returns a canonical
// result.
//
// # Destination passing
//
// Each operation is a method in math/big's style, z = z.Op(x, y): the result
// is written into z's storage when its capacity suffices and into a fresh
// slice otherwise, and the result is returned — callers must use the return
// value, never z itself. A caller that keeps its destinations (and, for
// DivMod and SqrtRem, a scratch slice) from one call to the next therefore
// computes without allocating; package mpfr passes slices of stack arrays.
//
// Aliasing rules:
//
//   - Set, Add, AddWord, Sub, Shl, Shr, MulWord: z may be the same slice
//     (same first word) as x and/or y, which updates in place. Other
//     overlaps between z and an operand are not allowed.
//   - Mul, Sqr: z may share storage with x or y; the kernel detects it and
//     writes into fresh storage instead.
//   - DivMod, SqrtRem: each destination may be the same slice as an operand
//     (whose value is then consumed); scratch, and any destination whose
//     reuse would corrupt an operand still being read, is detected and
//     replaced by fresh storage. Destinations and scratch must not share
//     storage with one another.
//
// Operands are read-only unless passed as a destination too.
//
// The package-level functions (Add, Sub, Mul, DivMod, SqrtFloor, ...) are
// the allocating forms: one-line wrappers that pass nil destinations, so
// their results never share storage with their arguments.
package mpnat

import "math/bits"

// Nat is an arbitrary-precision natural number stored as little-endian
// 64-bit limbs. The zero value represents the number 0.
type Nat []uint64

// Norm returns x with trailing zero limbs removed (canonical form).
func (x Nat) Norm() Nat {
	n := len(x)
	for n > 0 && x[n-1] == 0 {
		n--
	}
	return x[:n]
}

// IsZero reports whether x represents 0.
func (x Nat) IsZero() bool {
	for _, w := range x {
		if w != 0 {
			return false
		}
	}
	return true
}

// BitLen returns the number of bits in x; the bit length of 0 is 0.
func (x Nat) BitLen() int {
	x = x.Norm()
	if len(x) == 0 {
		return 0
	}
	return (len(x)-1)*64 + bits.Len64(x[len(x)-1])
}

// Bit returns bit i of x (0 or 1). Bits beyond BitLen are 0.
func (x Nat) Bit(i int) uint {
	if i < 0 || i/64 >= len(x) {
		return 0
	}
	return uint(x[i/64]>>(i%64)) & 1
}

// TrailingZeros returns the number of trailing zero bits in x; it returns 0
// for x == 0.
func (x Nat) TrailingZeros() int {
	x = x.Norm()
	for i, w := range x {
		if w != 0 {
			return i*64 + bits.TrailingZeros64(w)
		}
	}
	return 0
}

// Uint64 returns the low 64 bits of x and whether x fits in a uint64.
func (x Nat) Uint64() (uint64, bool) {
	x = x.Norm()
	switch len(x) {
	case 0:
		return 0, true
	case 1:
		return x[0], true
	default:
		return x[0], false
	}
}

// Cmp compares x and y, returning -1, 0, or +1.
func (x Nat) Cmp(y Nat) int {
	x, y = x.Norm(), y.Norm()
	switch {
	case len(x) < len(y):
		return -1
	case len(x) > len(y):
		return 1
	}
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

// Clone returns an independent copy of x.
func (x Nat) Clone() Nat { return Nat(nil).Set(x) }

// FromUint64 returns the Nat representing w.
func FromUint64(w uint64) Nat { return Nat(nil).SetUint64(w) }

// Add returns x + y.
func Add(x, y Nat) Nat { return Nat(nil).Add(x, y) }

// AddWord returns x + w.
func AddWord(x Nat, w uint64) Nat { return Nat(nil).AddWord(x, w) }

// Sub returns x - y. It panics if y > x (natural numbers cannot go negative).
func Sub(x, y Nat) Nat { return Nat(nil).Sub(x, y) }

// Shl returns x << s.
func Shl(x Nat, s uint) Nat { return Nat(nil).Shl(x, s) }

// Shr returns x >> s (bits shifted out are discarded).
func Shr(x Nat, s uint) Nat { return Nat(nil).Shr(x, s) }

// Mul returns x * y.
func Mul(x, y Nat) Nat { return Nat(nil).Mul(x, y) }

// MulWord returns x * w.
func MulWord(x Nat, w uint64) Nat { return Nat(nil).MulWord(x, w) }

// Sqr returns x * x.
func Sqr(x Nat) Nat { return Nat(nil).Sqr(x) }

// DivMod returns the quotient and remainder of x / y. It panics when y is 0.
func DivMod(x, y Nat) (q, r Nat) { return Nat(nil).DivMod(nil, x, y, nil) }

// SqrtFloor returns floor(sqrt(x)).
func SqrtFloor(x Nat) Nat {
	root, _ := Nat(nil).SqrtRem(nil, x, nil)
	return root
}

// make returns z resized to n words, reusing z's storage when its capacity
// suffices. The words' contents are unspecified.
func (z Nat) make(n int) Nat {
	if n <= cap(z) {
		return z[:n]
	}
	return make(Nat, n)
}

// alias reports whether x and y share a backing array (math/big's test:
// slices of one array with the same capacity end).
func alias(x, y Nat) bool {
	return cap(x) > 0 && cap(y) > 0 && &x[0:cap(x)][cap(x)-1] == &y[0:cap(y)][cap(y)-1]
}

// take splits an n-word buffer off the front of *s, capping its capacity so
// it cannot grow into the rest of *s. When *s is too short it returns nil,
// and the kernel that receives it allocates.
func take(s *Nat, n int) Nat {
	if cap(*s) < n {
		return nil
	}
	t := (*s)[:0:n]
	*s = (*s)[n:cap(*s)]
	return t
}
