package mpfr

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"fpvm/internal/mpnat"
)

// pow10Nat sets z to 10^n and returns z.
func pow10Nat(z mpnat.Nat, n int64) mpnat.Nat {
	if n < 0 {
		panic("mpfr: pow10Nat negative")
	}
	z = z.SetUint64(1)
	// Multiply in chunks of 10^19 (the largest power of ten in a uint64).
	const chunkPow = 19
	const chunk = uint64(10_000_000_000_000_000_000)
	for ; n >= chunkPow; n -= chunkPow {
		z = z.MulWord(z, chunk)
	}
	w := uint64(1)
	for ; n > 0; n-- {
		w *= 10
	}
	return z.MulWord(z, w)
}

// SetString sets z to the value of s, which may be a decimal number with
// optional sign, fraction, and exponent ("-1.25e-3"), or "inf"/"nan"
// (case-insensitive). It returns z, the ternary value, and an error.
func (z *Float) SetString(s string, rnd RoundingMode) (*Float, int, error) {
	orig := s
	s = strings.TrimSpace(s)
	neg := false
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		neg = s[0] == '-'
		s = s[1:]
	}
	switch strings.ToLower(s) {
	case "inf", "infinity":
		z.setInf(neg)
		return z, 0, nil
	case "nan":
		z.setNaN()
		return z, 0, nil
	}

	mantStr, expStr := s, ""
	hasExpMarker := false
	if i := strings.IndexAny(s, "eE"); i >= 0 {
		mantStr, expStr = s[:i], s[i+1:]
		hasExpMarker = true
	}
	if hasExpMarker && expStr == "" {
		return z, 0, fmt.Errorf("mpfr: missing exponent in %q", orig)
	}
	intPart, fracPart := mantStr, ""
	if i := strings.IndexByte(mantStr, '.'); i >= 0 {
		intPart, fracPart = mantStr[:i], mantStr[i+1:]
	}
	if intPart == "" && fracPart == "" {
		return z, 0, fmt.Errorf("mpfr: invalid number %q", orig)
	}

	var digits mpnat.Nat
	for _, c := range intPart + fracPart {
		if c < '0' || c > '9' {
			return z, 0, fmt.Errorf("mpfr: invalid digit in %q", orig)
		}
		digits = mpnat.AddWord(mpnat.MulWord(digits, 10), uint64(c-'0'))
	}

	exp10 := int64(-len(fracPart))
	if expStr != "" {
		e, err := parseInt(expStr)
		if err != nil {
			return z, 0, fmt.Errorf("mpfr: invalid exponent in %q", orig)
		}
		exp10 += e
	}

	if digits.IsZero() {
		z.setZero(neg)
		return z, 0, nil
	}

	var t int
	if exp10 >= 0 {
		m := mpnat.Mul(digits, pow10Nat(nil, exp10))
		t = z.setRounded(neg, m, 0, false, rnd)
	} else {
		den := pow10Nat(nil, -exp10)
		shift := int64(z.effPrec()) + 3 + int64(den.BitLen()) - int64(digits.BitLen())
		if shift < 0 {
			shift = 0
		}
		q, r := mpnat.DivMod(mpnat.Shl(digits, uint(shift)), den)
		t = z.setRounded(neg, q, -shift, !r.IsZero(), rnd)
	}
	return z, t, nil
}

func parseInt(s string) (int64, error) {
	neg := false
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		neg = s[0] == '-'
		s = s[1:]
	}
	if s == "" {
		return 0, errors.New("empty")
	}
	var v int64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, errors.New("bad digit")
		}
		v = v*10 + int64(c-'0')
		if v > 1<<40 {
			return 0, errors.New("exponent too large")
		}
	}
	if neg {
		v = -v
	}
	return v, nil
}

// Text formats x in scientific notation with the given number of significant
// decimal digits (digits <= 0 selects enough digits for the precision).
func (x *Float) Text(digits int) string {
	switch x.form {
	case nan:
		return "nan"
	case inf:
		if x.neg {
			return "-inf"
		}
		return "inf"
	case zero:
		if x.neg {
			return "-0"
		}
		return "0"
	}
	if digits <= 0 {
		// ceil(prec·log10(2)) + 1 digits round-trips the value.
		digits = int(float64(x.effPrec())*0.30103) + 2
	}

	dec, e10 := x.decimalDigits(digits)
	var b strings.Builder
	if x.neg {
		b.WriteByte('-')
	}
	b.WriteByte(dec[0])
	if len(dec) > 1 {
		b.WriteByte('.')
		b.WriteString(dec[1:])
	}
	fmt.Fprintf(&b, "e%+03d", e10)
	return b.String()
}

// String formats x with enough digits to distinguish values at x's precision.
func (x *Float) String() string { return x.Text(0) }

// exactScaleLimit bounds the binary or decimal exponent magnitude up to
// which formatting scales exactly with integer arithmetic. Beyond it, the
// exact scale factor (10^|e10| or 2^|exp| as a full integer) would cost
// memory and time linear in the exponent — for values like pow(1e10, 1e10)
// with binary exponents near 10^12 that is an effective hang — so huge
// exponents take the floating-point scaling path instead.
const exactScaleLimit = 1 << 14

// decimalDigits returns exactly n decimal digits of |x| (rounded to nearest)
// and the decimal exponent e10 such that |x| ≈ 0.D... × 10^(e10+1), i.e.
// the first digit has weight 10^e10.
func (x *Float) decimalDigits(n int) (string, int) {
	// Estimate the decimal exponent from the binary exponent.
	// |x| ∈ [2^(exp-1), 2^exp) so log10|x| ∈ [(exp-1)·log10 2, exp·log10 2).
	e10 := int64(float64(x.exp-1) * 0.30102999566398119521)
	huge := x.exp > exactScaleLimit || x.exp < -exactScaleLimit

	for {
		var digits string
		var ok bool
		if huge {
			digits, ok = x.approxDigits(int64(n), e10)
		} else {
			digits, ok = x.scaledDigits(int64(n), e10)
		}
		if !ok {
			e10++ // estimate was low: produced too many digits
			continue
		}
		if len(digits) < n {
			e10-- // estimate was high
			continue
		}
		return digits, int(e10)
	}
}

// powTen returns 10^p (p >= 0) at precision prec by binary exponentiation —
// O(log p) multiplications, each rounded to prec bits, instead of the exact
// integer power whose size grows linearly with p.
func powTen(p int64, prec uint) *Float {
	base := New(prec)
	base.SetInt64(10, RoundNearestEven)
	z := New(prec)
	z.SetInt64(1, RoundNearestEven)
	for ; p > 0; p >>= 1 {
		if p&1 == 1 {
			z.Mul(z, base, RoundNearestEven)
		}
		base.Sqr(base, RoundNearestEven)
	}
	return z
}

// approxDigits computes round(|x| / 10^(e10+1-n)) like scaledDigits, but by
// floating-point scaling at extended working precision, so its cost depends
// on the digit count rather than the exponent magnitude. The guard bits make
// all n digits correct except possibly the last ulp — the documented
// tolerance of the formatting path.
func (x *Float) approxDigits(n, e10 int64) (string, bool) {
	p10 := e10 + 1 - n // y = |x| / 10^p10 is an n-digit integer
	wp := uint(n)*4 + 64
	ax := New(wp)
	ax.Set(x, RoundNearestEven)
	ax.neg = false
	abs := p10
	if abs < 0 {
		abs = -abs
	}
	pw := powTen(abs, wp)
	y := New(wp)
	if p10 >= 0 {
		y.Div(ax, pw, RoundNearestEven)
	} else {
		y.Mul(ax, pw, RoundNearestEven)
	}

	// Round y to the nearest integer.
	ue := y.unitExp()
	var q mpnat.Nat
	switch {
	case ue >= 0:
		if ue > exactScaleLimit {
			return "", false // estimate far off; let the caller re-aim
		}
		q = mpnat.Shl(y.mant, uint(ue))
	default:
		s := uint(-ue)
		q = mpnat.Shr(y.mant, s)
		if y.mant.Bit(int(s)-1) == 1 {
			q = mpnat.AddWord(q, 1) // round half up, as scaledDigits does
		}
	}
	ds := natDecimal(q)
	if int64(len(ds)) > n {
		return "", false
	}
	return ds, true
}

// scaledDigits computes round(|x| / 10^(e10+1-n)) as a decimal string,
// returning ok=false if the result has more than n digits.
func (x *Float) scaledDigits(n, e10 int64) (string, bool) {
	ue := x.unitExp()
	p10 := n - 1 - e10 // multiply by 10^p10

	var numBuf, denBuf, powBuf [2 * scratchWords]uint64
	num, den := x.mant, mpnat.Nat(denBuf[:0]).SetUint64(1)
	if p10 >= 0 {
		num = mpnat.Nat(numBuf[:0]).Mul(num, pow10Nat(powBuf[:0], p10))
	} else {
		den = pow10Nat(den, -p10)
	}
	if ue >= 0 {
		num = mpnat.Nat(numBuf[:0]).Shl(num, uint(ue))
	} else {
		den = den.Shl(den, uint(-ue))
	}
	var qBuf, rBuf, scratch [2 * scratchWords]uint64
	q, r := mpnat.Nat(qBuf[:0]).DivMod(rBuf[:0], num, den, scratch[:0])
	// Round half up on the remainder (formatting choice; ties are unlikely
	// to matter for diagnostics and EXPERIMENTS output).
	if r = r.Shl(r, 1); r.Cmp(den) >= 0 {
		q = q.AddWord(q, 1)
	}
	s := natDecimal(q)
	if int64(len(s)) > n {
		return "", false
	}
	return s, true
}

// natDecimal converts a Nat to its decimal string.
func natDecimal(v mpnat.Nat) string {
	if v.IsZero() {
		return "0"
	}
	// Peel off base-10^19 chunks, least significant first, dividing a copy
	// of v in place.
	var buf [2 * scratchWords]uint64
	var chunks [2 * scratchWords]uint64
	var rb [1]uint64
	q, r := mpnat.Nat(buf[:0]).Set(v), mpnat.Nat(rb[:0])
	ten19 := mpnat.Nat{10_000_000_000_000_000_000}
	digits := chunks[:0]
	for len(q) != 0 {
		q, r = q.DivMod(r, q, ten19, nil)
		rw, _ := r.Uint64()
		digits = append(digits, rw)
	}
	b := make([]byte, 0, 20*len(digits))
	b = strconv.AppendUint(b, digits[len(digits)-1], 10)
	for i := len(digits) - 2; i >= 0; i-- {
		var c [19]byte
		w := digits[i]
		for k := 18; k >= 0; k-- {
			c[k] = byte('0' + w%10)
			w /= 10
		}
		b = append(b, c[:]...)
	}
	return string(b)
}
