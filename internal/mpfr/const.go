package mpfr

import (
	"sync"

	"fpvm/internal/mpnat"
)

// Constants are computed in fixed point (a Nat scaled by 2^wp) and cached
// per working precision. FPVM emulates millions of trig instructions at one
// fixed precision, so the cache hit rate is effectively 100% after startup,
// mirroring how MPFR caches its own constants.

type constCache struct {
	mu   sync.Mutex
	bits uint      // fractional bits of the cached value
	val  mpnat.Nat // value * 2^bits
}

var (
	piCache  constCache
	ln2Cache constCache
)

// get sets z to the constant times 2^bits, truncated, and returns z.
func (c *constCache) get(z mpnat.Nat, bits uint, compute func(uint) mpnat.Nat) mpnat.Nat {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.bits < bits {
		// Compute with a little headroom so nearby precisions reuse the cache.
		wp := bits + 64
		c.val = compute(wp)
		c.bits = wp
	}
	return z.Shr(c.val, c.bits-bits)
}

// Pi sets z to π rounded to z's precision and returns the ternary value.
// Its fixed-point value at prec+32 bits fits buf for every precision
// stackWords covers.
func (z *Float) Pi(rnd RoundingMode) int {
	wp := uint(z.effPrec()) + 32
	var buf [stackWords + 1]uint64
	fx := piCache.get(buf[:0], wp, computePi)
	return z.setRounded(false, fx, -int64(wp), true, rnd)
}

// Ln2 sets z to ln(2) rounded to z's precision and returns the ternary value.
func (z *Float) Ln2(rnd RoundingMode) int {
	wp := uint(z.effPrec()) + 32
	var buf [stackWords + 1]uint64
	fx := ln2Cache.get(buf[:0], wp, computeLn2)
	return z.setRounded(false, fx, -int64(wp), true, rnd)
}

// computePi returns π * 2^wp (truncated) using Machin's formula
// π = 16·atan(1/5) − 4·atan(1/239).
func computePi(wp uint) mpnat.Nat {
	// Guard bits cover series truncation and the subtraction.
	g := wp + 32
	a5 := atanRecipFixed(5, g)
	a239 := atanRecipFixed(239, g)
	pi := mpnat.Sub(mpnat.MulWord(a5, 16), mpnat.MulWord(a239, 4))
	return mpnat.Shr(pi, 32)
}

// computeLn2 returns ln(2) * 2^wp (truncated) using
// ln 2 = 2·atanh(1/3) = 2·Σ 1/((2k+1)·3^(2k+1)).
func computeLn2(wp uint) mpnat.Nat {
	g := wp + 32
	ln2 := mpnat.Shl(atanhRecipFixed(3, g), 1)
	return mpnat.Shr(ln2, 32)
}

// atanRecipFixed returns atan(1/m) * 2^bits (truncated) for integer m >= 2
// with m*m < 2^32, via the alternating series Σ (−1)^k / ((2k+1)·m^(2k+1)).
func atanRecipFixed(m uint64, bits uint) mpnat.Nat {
	one := mpnat.Shl(mpnat.Nat{1}, bits)
	pow, _ := mpnat.DivMod(one, mpnat.Nat{m}) // 1/m in fixed point
	m2 := m * m
	sum := pow.Clone()
	for k := uint64(1); ; k++ {
		pow, _ = mpnat.DivMod(pow, mpnat.Nat{m2})
		if pow.IsZero() {
			break
		}
		term, _ := mpnat.DivMod(pow, mpnat.Nat{2*k + 1})
		if term.IsZero() {
			break
		}
		if k%2 == 1 {
			sum = mpnat.Sub(sum, term)
		} else {
			sum = mpnat.Add(sum, term)
		}
	}
	return sum
}

// atanhRecipFixed returns atanh(1/m) * 2^bits (truncated) for integer m >= 2
// with m*m < 2^32, via Σ 1/((2k+1)·m^(2k+1)).
func atanhRecipFixed(m uint64, bits uint) mpnat.Nat {
	one := mpnat.Shl(mpnat.Nat{1}, bits)
	pow, _ := mpnat.DivMod(one, mpnat.Nat{m})
	m2 := m * m
	sum := pow.Clone()
	for k := uint64(1); ; k++ {
		pow, _ = mpnat.DivMod(pow, mpnat.Nat{m2})
		if pow.IsZero() {
			break
		}
		term, _ := mpnat.DivMod(pow, mpnat.Nat{2*k + 1})
		if term.IsZero() {
			break
		}
		sum = mpnat.Add(sum, term)
	}
	return sum
}
