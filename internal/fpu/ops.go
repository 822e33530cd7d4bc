package fpu

import (
	"math"
	"math/big"
)

// CompareResult encodes the RFLAGS outcome of ucomisd/comisd exactly as x64
// sets them: unordered → ZF=PF=CF=1; greater → all clear; less → CF=1;
// equal → ZF=1.
type CompareResult struct {
	ZF, PF, CF bool
	Flags      Flags
}

// Ucomisd compares a and b, signaling invalid only for signaling NaNs.
func Ucomisd(a, b float64) CompareResult {
	return compare(a, b, false)
}

// Comisd compares a and b, signaling invalid for any NaN.
func Comisd(a, b float64) CompareResult {
	return compare(a, b, true)
}

func compare(a, b float64, signalQuiet bool) CompareResult {
	f := operandFlags(a, b) // IE for sNaN, DE for subnormals
	if isNaNf(a) || isNaNf(b) {
		if signalQuiet {
			f |= FlagInvalid
		}
		return CompareResult{ZF: true, PF: true, CF: true, Flags: f}
	}
	switch {
	case a > b:
		return CompareResult{Flags: f}
	case a < b:
		return CompareResult{CF: true, Flags: f}
	default:
		return CompareResult{ZF: true, Flags: f}
	}
}

// IntResult is the outcome of a double→integer conversion.
type IntResult struct {
	Value int64
	Flags Flags
}

// Cvtsd2si converts a double to int64 with the given rounding control.
// Out-of-range, NaN, and infinite inputs produce the "integer indefinite"
// value (MinInt64) with IE set, as on x64.
func Cvtsd2si(v float64, rc RoundingControl) IntResult {
	f := operandFlags(v)
	if isNaNf(v) || isInff(v) {
		return IntResult{indefInt, f | FlagInvalid}
	}
	var r float64
	switch rc {
	case RCDown:
		r = math.Floor(v)
	case RCUp:
		r = math.Ceil(v)
	case RCZero:
		r = math.Trunc(v)
	default:
		r = math.RoundToEven(v)
	}
	if r < -9.223372036854776e18 || r >= 9.223372036854776e18 {
		return IntResult{indefInt, f | FlagInvalid}
	}
	i := int64(r)
	if r != v {
		f |= FlagInexact
	}
	return IntResult{i, f}
}

// Cvttsd2si converts a double to int64 with truncation (ignores MXCSR.RC).
func Cvttsd2si(v float64) IntResult { return Cvtsd2si(v, RCZero) }

// Cvtsi2sd converts an int64 to double; inexact when |v| needs > 53 bits.
func Cvtsi2sd(v int64) Result {
	r := float64(v)
	var f Flags
	// Exact iff the round trip reproduces v (guarding the MinInt64 edge,
	// whose float64 value converts back exactly).
	back := int64(r)
	if r >= 9.223372036854776e18 { // float64(MaxInt64) rounds up out of range
		back = math.MinInt64
	}
	if back != v {
		f |= FlagInexact
	}
	return Result{r, f}
}

// unary wraps a libm-style function with standard flag behavior: IE on sNaN
// input (quiet NaNs propagate silently), DE on subnormal input, and PE
// unless the caller proves exactness.
func unary(v float64, fn func(float64) float64, exactWhen func(in, out float64) bool) Result {
	f := operandFlags(v)
	if isNaNf(v) {
		return Result{propagateNaN(v), f}
	}
	r := fn(v)
	if isNaNf(r) {
		return Result{math.Float64frombits(qnanBits), f | FlagInvalid}
	}
	if isInff(r) && !isInff(v) {
		// Pole (log 0) or overflow (exp big): x64 libm semantics map the
		// pole case to ZE; we approximate with OE for exp-style overflow
		// and ZE for log-style poles, chosen by the callers below.
		return Result{r, f | FlagOverflow | FlagInexact}
	}
	if exactWhen == nil || !exactWhen(v, r) {
		f |= FlagInexact
	}
	return Result{r, f}
}

// Fabs computes |v|. Exact; signals nothing, but still traps FPVM via the
// arithmetic path (unlike the xorpd idiom, which is the analysis hole).
func Fabs(v float64) Result {
	f := operandFlags(v)
	if isNaNf(v) {
		return Result{propagateNaN(v), f}
	}
	return Result{math.Abs(v), f}
}

// Fneg computes -v. Exact.
func Fneg(v float64) Result {
	f := operandFlags(v)
	if isNaNf(v) {
		return Result{propagateNaN(v), f}
	}
	return Result{-v, f}
}

// Fsin computes sin(v); IE for ±Inf input.
func Fsin(v float64) Result {
	if isInff(v) {
		return Result{math.Float64frombits(qnanBits), FlagInvalid}
	}
	return unary(v, math.Sin, func(in, out float64) bool { return in == 0 })
}

// Fcos computes cos(v); IE for ±Inf input.
func Fcos(v float64) Result {
	if isInff(v) {
		return Result{math.Float64frombits(qnanBits), FlagInvalid}
	}
	return unary(v, math.Cos, func(in, out float64) bool { return in == 0 })
}

// Ftan computes tan(v); IE for ±Inf input.
func Ftan(v float64) Result {
	if isInff(v) {
		return Result{math.Float64frombits(qnanBits), FlagInvalid}
	}
	return unary(v, math.Tan, func(in, out float64) bool { return in == 0 })
}

// Fasin computes asin(v); IE outside [−1, 1].
func Fasin(v float64) Result {
	return unary(v, math.Asin, func(in, out float64) bool { return in == 0 })
}

// Facos computes acos(v); IE outside [−1, 1].
func Facos(v float64) Result {
	return unary(v, math.Acos, nil)
}

// Fatan computes atan(v).
func Fatan(v float64) Result {
	return unary(v, math.Atan, func(in, out float64) bool { return in == 0 })
}

// Fexp computes e^v; overflow sets OE+PE.
func Fexp(v float64) Result {
	if isInff(v) {
		f := operandFlags(v)
		if v > 0 {
			return Result{v, f}
		}
		return Result{0, f}
	}
	return unary(v, math.Exp, func(in, out float64) bool { return in == 0 })
}

// Flog computes ln(v); log(0) is a pole (ZE), log(neg) is IE.
func Flog(v float64) Result  { return logLike(v, math.Log) }
func Flog2(v float64) Result { return logLike(v, math.Log2) }

// Flog10 computes log10(v).
func Flog10(v float64) Result { return logLike(v, math.Log10) }

func logLike(v float64, fn func(float64) float64) Result {
	f := operandFlags(v)
	switch {
	case isNaNf(v):
		return Result{propagateNaN(v), f}
	case v == 0:
		return Result{math.Inf(-1), f | FlagDivZero}
	case v < 0:
		return Result{math.Float64frombits(qnanBits), f | FlagInvalid}
	case isInff(v):
		return Result{v, f}
	}
	r := fn(v)
	if r != 0 && !isExactLog(v, r) {
		f |= FlagInexact
	}
	return Result{r, f}
}

// isExactLog recognizes the handful of exact log cases (log2 of powers of 2).
func isExactLog(in, out float64) bool {
	return out == math.Trunc(out) && math.Exp2(out) == in && math.Log2(in) == out
}

// Fpow computes a^b with IEEE pow special cases delegated to math.Pow.
func Fpow(a, b float64) Result {
	f := operandFlags(a, b)
	// pow(x, 0) = 1 and pow(1, y) = 1 even for NaN partners (IEEE).
	r := math.Pow(a, b)
	if isNaNf(r) {
		if isNaNf(a) || isNaNf(b) {
			return Result{propagateNaN(a, b), f}
		}
		return Result{math.Float64frombits(qnanBits), f | FlagInvalid}
	}
	if isNaNf(a) || isNaNf(b) { // pow(NaN,0)=1, pow(1,NaN)=1: exact, no IE for quiet
		return Result{r, f}
	}
	if isInff(r) && !isInff(a) && !isInff(b) {
		if a == 0 { // pow(±0, negative) is a pole, like 1/0
			return Result{r, f | FlagDivZero}
		}
		return Result{r, f | FlagOverflow | FlagInexact}
	}
	if !powExact(a, b, r) {
		f |= FlagInexact
	}
	return Result{r, f}
}

// powExact recognizes exact powers: small integer exponents checked with
// exact big.Float exponentiation, plus square roots and trivial identities.
func powExact(a, b, r float64) bool {
	if b == 0 || a == 1 {
		return true
	}
	if b == 1 {
		return r == a
	}
	if b == 0.5 {
		return prodIs(r, r, a)
	}
	if b == math.Trunc(b) && math.Abs(b) <= 64 && !isInff(a) && a != 0 {
		// Exact integer power: up to 64 multiplications of a 53-bit
		// mantissa stay within 53*65 bits, far under the oracle precision.
		exact := new(big.Float).SetPrec(4096).SetInt64(1)
		base := new(big.Float).SetPrec(4096).SetFloat64(a)
		for i := 0; i < int(math.Abs(b)); i++ {
			exact.Mul(exact, base)
		}
		if b < 0 {
			// The reciprocal is exact only when a^|b| is a power of two.
			mant := new(big.Float)
			exact.MantExp(mant)
			if mant.Cmp(new(big.Float).SetFloat64(0.5)) != 0 {
				return false
			}
			exact.Quo(new(big.Float).SetPrec(4096).SetInt64(1), exact)
		}
		return new(big.Float).SetPrec(4096).SetFloat64(r).Cmp(exact) == 0
	}
	return false
}

// Fatan2 computes atan2(a, b).
func Fatan2(a, b float64) Result {
	f := operandFlags(a, b)
	if isNaNf(a) || isNaNf(b) {
		return Result{propagateNaN(a, b), f}
	}
	r := math.Atan2(a, b)
	if r != 0 {
		f |= FlagInexact
	}
	return Result{r, f}
}

// Fhypot computes hypot(a, b).
func Fhypot(a, b float64) Result {
	f := operandFlags(a, b)
	if isNaNf(a) || isNaNf(b) {
		if isInff(a) || isInff(b) {
			return Result{math.Inf(1), f}
		}
		return Result{propagateNaN(a, b), f}
	}
	r := math.Hypot(a, b)
	// Exact when one operand is zero or the result reproduces a simple case.
	exact := a == 0 || b == 0
	if !exact {
		f |= FlagInexact
	}
	if isInff(r) && !isInff(a) && !isInff(b) {
		f |= FlagOverflow | FlagInexact
	}
	return Result{r, f}
}

// Fmod computes the C fmod (truncated remainder); always exact when defined.
func Fmod(a, b float64) Result {
	f := operandFlags(a, b)
	if isNaNf(a) || isNaNf(b) {
		return Result{propagateNaN(a, b), f}
	}
	if isInff(a) || b == 0 {
		return Result{math.Float64frombits(qnanBits), f | FlagInvalid}
	}
	return Result{math.Mod(a, b), f} // fmod is exact
}

// roundLike handles floor/ceil/round/trunc: PE iff the value changed.
func roundLike(v float64, fn func(float64) float64) Result {
	f := operandFlags(v)
	if isNaNf(v) {
		return Result{propagateNaN(v), f}
	}
	r := fn(v)
	if r != v {
		f |= FlagInexact
	}
	return Result{r, f}
}

// Ffloor computes floor(v).
func Ffloor(v float64) Result { return roundLike(v, math.Floor) }

// Fceil computes ceil(v).
func Fceil(v float64) Result { return roundLike(v, math.Ceil) }

// Fround computes round-half-away-from-zero(v).
func Fround(v float64) Result { return roundLike(v, math.Round) }

// Ftrunc computes trunc(v).
func Ftrunc(v float64) Result { return roundLike(v, math.Trunc) }
