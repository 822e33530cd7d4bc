package mpfr

import (
	"math/bits"

	"fpvm/internal/mpnat"
)

// setRounded sets z to (-1)^neg * m * 2^exp2, where m is an integer
// mantissa of any length given as little-endian words, rounded to z's
// precision with mode rnd. sticky indicates that nonzero bits below m were
// already discarded by the caller. It returns the MPFR-style ternary value:
// 0 exact, +1 if z > exact value, -1 if z < exact value.
//
// This is the single rounding point for the whole package: every arithmetic
// operation reduces to producing an exact (or guard+sticky-annotated)
// integer mantissa and calling setRounded. The basic operations pass m
// with its top word nonzero, because a finite mantissa is exactly prec
// bits and fixes the length of their results, so m's bit length comes
// from its top word; zero top words are dropped first. Shifting m to z's
// precision, reading the guard and sticky bits and incrementing are one
// pass over the words, written straight into z's mantissa.
//
// Contract: when sticky is true the caller must supply either a mantissa
// m with at least prec+1 bits, so that the guard bit (the first bit below
// the retained precision) is part of m and only strictly-lower bits were
// discarded, or one of at most prec bits whose discarded tail is below
// half a unit in m's last place.
func (z *Float) setRounded(neg bool, m []uint64, exp2 int64, sticky bool, rnd RoundingMode) int {
	for len(m) > 0 && m[len(m)-1] == 0 {
		m = m[:len(m)-1]
	}
	if len(m) == 0 {
		if sticky {
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
	pw := (prec + 63) / 64
	bl := 64*(len(m)-1) + bits.Len64(m[len(m)-1])
	shift := bl - prec

	// The guard and sticky bits are read before z.mant is written: m may be
	// z.mant itself (SetPrec rounds in place).
	guard, odd := false, false
	if shift > 0 {
		guard = bitAt(m, shift-1)
		odd = bitAt(m, shift)
		sticky = sticky || lowBitsNonzero(m, shift-1)
	}
	inexact := guard || sticky
	roundUp := inexact && roundUpDecision(neg, guard, sticky, odd, rnd)
	var carry uint64
	if roundUp {
		carry = 1
	}

	if cap(z.mant) < pw {
		z.mant = make(mpnat.Nat, pw)
	} else {
		z.mant = z.mant[:pw]
	}
	zm := z.mant
	if shift >= 0 {
		// Bottom up, adding the increment as the words go by, since z.mant
		// may be m itself shifted down.
		src, off := m[shift>>6:], uint(shift)&63
		if off == 0 {
			for i := range zm {
				zm[i], carry = bits.Add64(src[i], 0, carry)
			}
		} else {
			top := pw - 1
			for i := 0; i < top; i++ {
				zm[i], carry = bits.Add64(src[i]>>off|src[i+1]<<(64-off), 0, carry)
			}
			w := src[top] >> off
			if top+1 < len(src) {
				w |= src[top+1] << (64 - off)
			}
			zm[top], carry = bits.Add64(w, 0, carry)
		}
	} else {
		// Top down, since z.mant may be m itself shifted up. The shifted m
		// has exactly prec bits, so its words end at pw.
		k, n := -shift/64, len(m)
		out := mpnat.ShlN(zm[k:k+n], m, uint(-shift%64))
		if k+n < pw {
			zm[k+n] = out
		}
		clear(zm[:k])
		carry = mpnat.AddWordN(zm, zm, carry)
	}

	exp := exp2 + int64(bl)
	if roundUp && (carry != 0 || zm[pw-1]>>((prec-1)%64+1) != 0) {
		// The increment carried out of the top bit: m was all ones, and
		// the rounded value 2^prec is 2^(prec-1) one exponent up.
		clear(zm)
		zm[pw-1] = 1 << ((prec - 1) % 64)
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

// roundUpDecision decides whether to increment the truncated mantissa.
// guard is the first discarded bit, sticky whether any lower bit is set,
// odd the truncated mantissa's last bit (needed for ties-to-even).
func roundUpDecision(neg, guard, sticky, odd bool, rnd RoundingMode) bool {
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
		return odd // tie: round to even
	}
}

// bitAt reports whether bit i of m is set; i must be below 64·len(m).
func bitAt(m []uint64, i int) bool {
	return m[i/64]>>(uint(i)%64)&1 != 0
}

// lowBitsNonzero reports whether any of bits [0, n) of m is nonzero.
func lowBitsNonzero(m []uint64, n int) bool {
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
	// Smallest magnitude step at the caller's scale: exactly 2^exp2.
	one := [1]uint64{1}
	z.setRounded(neg, one[:], exp2, false, rnd)
	if neg {
		return -1
	}
	return 1
}
