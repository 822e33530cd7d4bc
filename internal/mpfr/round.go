package mpfr

import "fpvm/internal/mpnat"

// setRounded sets z to (-1)^neg * m * 2^exp2, where m is an arbitrary-length
// integer mantissa, rounded to z's precision with mode rnd. stickyExtra
// indicates that nonzero bits below m were already discarded by the caller.
// It returns the MPFR-style ternary value: 0 exact, +1 if z > exact value,
// -1 if z < exact value.
//
// This is the single rounding point for the whole package: every arithmetic
// operation reduces to producing an exact (or guard+sticky-annotated)
// integer mantissa and calling setRounded.
//
// Contract: when stickyExtra is true the caller must supply a mantissa m
// with BitLen(m) >= prec+1, so that the guard bit (the first bit below the
// retained precision) is part of m and only strictly-lower bits were
// discarded. Every caller in this package keeps >= 2 guard bits.
func (z *Float) setRounded(neg bool, m mpnat.Nat, exp2 int64, stickyExtra bool, rnd RoundingMode) int {
	m = m.Norm()
	if m.IsZero() {
		if stickyExtra {
			// The entire value was discarded bits: round as if from a tiny
			// nonzero magnitude. This only happens for callers that shifted
			// everything out; produce the smallest representable step or
			// zero depending on the mode.
			return z.roundUnderflowSticky(neg, exp2, rnd)
		}
		z.setZero(neg)
		return 0
	}

	prec := int(z.effPrec())
	bl := m.BitLen()
	shift := bl - prec

	// The guard and sticky bits are read before z.mant is written: m may be
	// z.mant itself (SetPrec rounds in place).
	inexact := false
	roundUp := false
	if shift <= 0 {
		z.mant = z.mant.Shl(m, uint(-shift))
		inexact = stickyExtra
		if stickyExtra {
			roundUp = roundUpDecision(neg, false, true, z.mant, rnd)
		}
	} else {
		guard := m.Bit(shift-1) == 1
		sticky := stickyExtra
		if !sticky {
			// Any nonzero bit below the guard bit?
			sticky = lowBitsNonzero(m, shift-1)
		}
		inexact = guard || sticky
		z.mant = z.mant.Shr(m, uint(shift))
		if inexact {
			roundUp = roundUpDecision(neg, guard, sticky, z.mant, rnd)
		}
	}

	exp := exp2 + int64(bl)
	if roundUp && incMant(z.mant, prec) {
		exp++
	}

	z.form = finite
	z.neg = neg
	z.exp = exp

	if !inexact {
		return 0
	}
	// Ternary is signed: +1 means the stored value exceeds the exact value.
	if roundUp != neg {
		return 1
	}
	return -1
}

// incMant adds one unit in the last place to the prec-bit mantissa m in
// place. If that carries out of the top bit (m was all ones), m becomes
// 2^(prec-1) — the rounded-up value 2^prec with one bit shifted out — and
// incMant reports true so the caller can bump the exponent.
func incMant(m mpnat.Nat, prec int) bool {
	carried := true
	for i := range m {
		m[i]++
		if m[i] != 0 {
			carried = false
			break
		}
	}
	if !carried && m.BitLen() <= prec {
		return false
	}
	clear(m)
	m[(prec-1)/64] = 1 << ((prec - 1) % 64)
	return true
}

// roundUpDecision decides whether to increment the truncated mantissa.
// guard is the first discarded bit, sticky whether any lower bit is set,
// mant the truncated mantissa (needed for ties-to-even).
func roundUpDecision(neg, guard, sticky bool, mant mpnat.Nat, rnd RoundingMode) bool {
	switch rnd {
	case RoundTowardZero:
		return false
	case RoundTowardPositive:
		return !neg
	case RoundTowardNegative:
		return neg
	case RoundNearestAway:
		return guard
	default: // RoundNearestEven
		if !guard {
			return false
		}
		if sticky {
			return true
		}
		return mant.Bit(0) == 1 // tie: round to even
	}
}

// lowBitsNonzero reports whether any of bits [0, n) of m is nonzero.
func lowBitsNonzero(m mpnat.Nat, n int) bool {
	if n <= 0 {
		return false
	}
	full := n / 64
	for i := 0; i < full && i < len(m); i++ {
		if m[i] != 0 {
			return true
		}
	}
	if rem := uint(n % 64); rem != 0 && full < len(m) {
		if m[full]&((uint64(1)<<rem)-1) != 0 {
			return true
		}
	}
	return false
}

// roundUnderflowSticky handles the degenerate case where the mantissa
// was entirely discarded and only sticky information remains: the exact
// value is nonzero but below every representable bit the caller kept.
func (z *Float) roundUnderflowSticky(neg bool, exp2 int64, rnd RoundingMode) int {
	up := false
	switch rnd {
	case RoundTowardPositive:
		up = !neg
	case RoundTowardNegative:
		up = neg
	}
	if !up {
		z.setZero(neg)
		if neg {
			return 1 // -0 stored, exact value < 0
		}
		return -1
	}
	// Smallest magnitude step at the caller's scale.
	z.form = finite
	z.neg = neg
	prec := int64(z.effPrec())
	z.mant = z.mant.Shl(mpnat.Nat{1}, uint(prec-1))
	z.exp = exp2 + 1
	if neg {
		return -1
	}
	return 1
}
