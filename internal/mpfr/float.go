// Package mpfr implements arbitrary-precision binary floating point
// arithmetic with correct rounding, modeled on the GNU MPFR library that the
// FPVM paper plugs in as its high-precision alternative arithmetic system
// (§4.3). It is written from scratch on top of package mpnat; math/big is
// used only in tests, as an oracle.
//
// A Float with precision p represents
//
//	(-1)^sign * 0.m * 2^exp
//
// where m is a p-bit integer mantissa with its most significant bit set
// (so the value lies in [2^(exp-1), 2^exp)). Zero, ±Inf and NaN are
// represented explicitly. Each operation takes an explicit rounding mode and
// returns a ternary value like MPFR: 0 if the stored result is exact,
// +1 if it is larger than the mathematical result, -1 if smaller.
//
// Basic operations (Add, Sub, Mul, Div, Sqrt, FMA, conversions) are
// correctly rounded in all five modes. Transcendental functions are computed
// with guard precision and are faithful (error below 1 ulp) rather than
// guaranteed correctly rounded, which is sufficient for FPVM's use.
package mpfr

import (
	"fpvm/internal/mpnat"
)

// RoundingMode selects how results are rounded to the destination precision.
type RoundingMode uint8

// Rounding modes, mirroring MPFR's MPFR_RND* set.
const (
	RoundNearestEven RoundingMode = iota // ties to even (IEEE default)
	RoundTowardZero
	RoundTowardPositive
	RoundTowardNegative
	RoundNearestAway // ties away from zero
)

func (m RoundingMode) String() string {
	switch m {
	case RoundNearestEven:
		return "RNE"
	case RoundTowardZero:
		return "RTZ"
	case RoundTowardPositive:
		return "RTP"
	case RoundTowardNegative:
		return "RTN"
	case RoundNearestAway:
		return "RNA"
	default:
		return "RND?"
	}
}

type form uint8

const (
	finite form = iota
	zero
	inf
	nan
)

// MinPrec and MaxPrec bound the precision of a Float, in bits.
const (
	MinPrec = 2
	MaxPrec = 1 << 30
)

// Float is an arbitrary-precision binary floating point number.
// The zero value is a NaN of precision 53; use New to pick a precision.
//
// Operations write the result's mantissa into the destination's own
// storage, so a Float must not be copied by value: a shallow copy shares
// that storage. Use Copy or Set instead.
type Float struct {
	prec uint32
	form form
	neg  bool
	exp  int64
	mant mpnat.Nat // exactly prec bits when form == finite, MSB set
}

// scratchWords sizes the stack buffers the basic operations compute in:
// 16 words hold a shifted operand of an add or a dividend's divisor, and
// twice that a double-width product or a shifted dividend, at up to about
// 500 bits of precision. That covers the 200-bit hot path including the
// transcendentals' guard precisions, so it never touches the heap for
// intermediates. Wider operands still work: the mpnat kernels fall back to
// fresh storage when a buffer is too small.
const scratchWords = 16

// inlineWords is the mantissa size New allocates together with a Float:
// 256 bits cover the 200-bit precision of the paper's evaluation, so a
// boxed result is one allocation instead of two.
const inlineWords = 4

type inlineFloat struct {
	f   Float
	buf [inlineWords]uint64
}

// New returns a NaN-valued Float with the given precision in bits.
func New(prec uint) *Float {
	p := clampPrec(prec)
	if p <= 64*inlineWords {
		b := new(inlineFloat)
		b.f = Float{prec: p, form: nan, mant: b.buf[:0]}
		return &b.f
	}
	return &Float{prec: p, form: nan}
}

func clampPrec(prec uint) uint32 {
	if prec < MinPrec {
		prec = MinPrec
	}
	if prec > MaxPrec {
		prec = MaxPrec
	}
	return uint32(prec)
}

// Prec returns the precision of x in bits.
func (x *Float) Prec() uint { return uint(x.effPrec()) }

func (x *Float) effPrec() uint32 {
	if x.prec == 0 {
		return 53
	}
	return x.prec
}

// SetPrec changes the precision of z to prec bits, rounding the current
// value to the new precision with rounding mode rnd, and returns z.
func (z *Float) SetPrec(prec uint, rnd RoundingMode) *Float {
	p := clampPrec(prec)
	if z.form != finite {
		z.prec = p
		return z
	}
	mant, exp, neg := z.mant, z.exp, z.neg
	z.prec = p
	z.setRounded(neg, mant, exp-int64(mant.BitLen()), false, rnd)
	return z
}

// IsNaN reports whether x is a NaN.
func (x *Float) IsNaN() bool { return x.form == nan }

// IsInf reports whether x is +Inf or -Inf.
func (x *Float) IsInf() bool { return x.form == inf }

// IsZero reports whether x is +0 or -0.
func (x *Float) IsZero() bool { return x.form == zero }

// IsFinite reports whether x is a nonzero finite number or zero.
func (x *Float) IsFinite() bool { return x.form == finite || x.form == zero }

// Signbit reports whether x is negative or negative zero (or negative Inf).
func (x *Float) Signbit() bool { return x.neg }

// Sign returns -1, 0, or +1 according to the sign of x. Sign of NaN is 0.
func (x *Float) Sign() int {
	switch x.form {
	case zero, nan:
		return 0
	default:
		if x.neg {
			return -1
		}
		return 1
	}
}

// BinExp returns the binary exponent of x such that |x| ∈ [2^(e-1), 2^e).
// It returns 0 for zero, Inf, and NaN.
func (x *Float) BinExp() int64 {
	if x.form != finite {
		return 0
	}
	return x.exp
}

// setNaN sets z to NaN and returns z.
func (z *Float) setNaN() *Float {
	z.form = nan
	z.neg = false
	z.mant = z.mant[:0] // keep the storage for reuse
	return z
}

// setInf sets z to ±Inf.
func (z *Float) setInf(neg bool) *Float {
	z.form = inf
	z.neg = neg
	z.mant = z.mant[:0] // keep the storage for reuse
	return z
}

// setZero sets z to ±0.
func (z *Float) setZero(neg bool) *Float {
	z.form = zero
	z.neg = neg
	z.mant = z.mant[:0] // keep the storage for reuse
	return z
}

// SetNaN sets z to NaN and returns z.
func (z *Float) SetNaN() *Float { return z.setNaN() }

// SetInf sets z to +Inf (sign > 0 or 0) or -Inf (sign < 0) and returns z.
func (z *Float) SetInf(sign int) *Float { return z.setInf(sign < 0) }

// SetZero sets z to +0 (sign >= 0) or -0 and returns z.
func (z *Float) SetZero(sign int) *Float { return z.setZero(sign < 0) }

// Set sets z to x rounded to z's precision and returns the ternary value.
func (z *Float) Set(x *Float, rnd RoundingMode) int {
	if z == x {
		return 0
	}
	switch x.form {
	case nan:
		z.setNaN()
		return 0
	case inf:
		z.setInf(x.neg)
		return 0
	case zero:
		z.setZero(x.neg)
		return 0
	}
	return z.setRounded(x.neg, x.mant, x.exp-int64(x.mant.BitLen()), false, rnd)
}

// Copy sets z to x exactly, adopting x's precision, and returns z.
func (z *Float) Copy(x *Float) *Float {
	if z == x {
		return z
	}
	z.prec = x.effPrec()
	z.form = x.form
	z.neg = x.neg
	z.exp = x.exp
	z.mant = z.mant.Set(x.mant)
	return z
}

// SetInt64 sets z to v rounded to z's precision; returns the ternary value.
func (z *Float) SetInt64(v int64, rnd RoundingMode) int {
	neg := v < 0
	var u uint64
	if neg {
		u = uint64(-(v + 1)) + 1 // avoid overflow at MinInt64
	} else {
		u = uint64(v)
	}
	return z.setUintParts(neg, u, rnd)
}

// SetUint64 sets z to v rounded to z's precision; returns the ternary value.
func (z *Float) SetUint64(v uint64, rnd RoundingMode) int {
	return z.setUintParts(false, v, rnd)
}

func (z *Float) setUintParts(neg bool, u uint64, rnd RoundingMode) int {
	if u == 0 {
		z.setZero(false)
		return 0
	}
	return z.setRounded(neg, mpnat.Nat{u}, 0, false, rnd)
}

// Neg sets z to -x rounded to z's precision and returns the ternary value.
func (z *Float) Neg(x *Float, rnd RoundingMode) int {
	t := z.Set(x, rnd)
	if z.form != nan {
		z.neg = !z.neg
	}
	return -t
}

// Abs sets z to |x| rounded to z's precision and returns the ternary value.
func (z *Float) Abs(x *Float, rnd RoundingMode) int {
	neg := x.neg
	t := z.Set(x, rnd)
	if z.form != nan {
		z.neg = false
	}
	if neg {
		return -t
	}
	return t
}

// MantExp decomposes x into mantissa bits and exponent for inspection in
// tests and debugging. The returned Nat aliases x's internal storage.
func (x *Float) MantExp() (mant mpnat.Nat, exp int64, negative bool) {
	return x.mant, x.exp, x.neg
}
