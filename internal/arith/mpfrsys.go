package arith

import (
	"fmt"

	"fpvm/internal/fpu"
	"fpvm/internal/mpfr"
)

// MPFRSystem plugs the arbitrary-precision mpfr package into FPVM, the
// analog of the paper's GNU MPFR port. Precision is selected at
// construction, like the paper's compile-time/environment parameter
// (200 bits in the evaluation).
type MPFRSystem struct {
	prec uint
	rnd  mpfr.RoundingMode
}

var _ System = (*MPFRSystem)(nil)

// NewMPFR returns an MPFR arithmetic system with the given precision in
// bits (the paper's evaluation uses 200).
func NewMPFR(prec uint) *MPFRSystem {
	return &MPFRSystem{prec: prec, rnd: mpfr.RoundNearestEven}
}

// Name returns "mpfr<prec>".
func (s *MPFRSystem) Name() string { return fmt.Sprintf("mpfr%d", s.prec) }

// Prec returns the working precision in bits.
func (s *MPFRSystem) Prec() uint { return s.prec }

func (s *MPFRSystem) get(v Value) *mpfr.Float { return v.(*mpfr.Float) }

func (s *MPFRSystem) new() *mpfr.Float { return mpfr.New(s.prec) }

// Apply evaluates op at the configured precision into a new Float.
func (s *MPFRSystem) Apply(op Op, args ...Value) Value {
	var x [3]*mpfr.Float
	for i, a := range args {
		x[i] = s.get(a)
	}
	z := s.new()
	var tmp *modScratch
	if op == OpMod {
		tmp = s.newModScratch()
	}
	s.apply(op, z, x[0], x[1], x[2], tmp)
	return z
}

// modScratch holds fmod's two temporaries, the truncated quotient and its
// product with the divisor, at the system's precision plus 64 bits. A Store
// owns one and reuses it for every fmod; the boxed Apply makes a fresh one
// per call. An MPFRSystem may be shared between VMs, so it holds none.
type modScratch [2]*mpfr.Float

func (s *MPFRSystem) newModScratch() *modScratch {
	return &modScratch{mpfr.New(s.prec + 64), mpfr.New(s.prec + 64)}
}

// apply evaluates op on a, b and c (only the first op.Arity() are read) and
// writes the result into z, which must not alias an operand. It is the one
// MPFR kernel behind both Apply and the mpfr.Table records of a Store. tmp
// is the fmod scratch; only OpMod reads it.
func (s *MPFRSystem) apply(op Op, z, a, b, c *mpfr.Float, tmp *modScratch) {
	switch op {
	case OpAdd:
		z.Add(a, b, s.rnd)
	case OpSub:
		z.Sub(a, b, s.rnd)
	case OpMul:
		z.Mul(a, b, s.rnd)
	case OpDiv:
		z.Div(a, b, s.rnd)
	case OpSqrt:
		z.Sqrt(a, s.rnd)
	case OpFMA:
		z.FMA(a, b, c, s.rnd)
	case OpMin:
		// x64 semantics: NaN or tie → second operand.
		if !a.IsNaN() && !b.IsNaN() && a.Cmp(b) < 0 {
			z.Set(a, s.rnd)
		} else {
			z.Set(b, s.rnd)
		}
	case OpMax:
		if !a.IsNaN() && !b.IsNaN() && a.Cmp(b) > 0 {
			z.Set(a, s.rnd)
		} else {
			z.Set(b, s.rnd)
		}
	case OpAbs:
		z.Abs(a, s.rnd)
	case OpNeg:
		z.Neg(a, s.rnd)
	case OpSin:
		z.Sin(a, s.rnd)
	case OpCos:
		z.Cos(a, s.rnd)
	case OpTan:
		z.Tan(a, s.rnd)
	case OpAsin:
		z.Asin(a, s.rnd)
	case OpAcos:
		z.Acos(a, s.rnd)
	case OpAtan:
		z.Atan(a, s.rnd)
	case OpAtan2:
		z.Atan2(a, b, s.rnd)
	case OpExp:
		z.Exp(a, s.rnd)
	case OpLog:
		z.Log(a, s.rnd)
	case OpLog2:
		z.Log2(a, s.rnd)
	case OpLog10:
		z.Log10(a, s.rnd)
	case OpPow:
		z.Pow(a, b, s.rnd)
	case OpMod:
		s.mod(z, a, b, tmp)
	case OpHypot:
		z.Hypot(a, b, s.rnd)
	case OpFloor:
		z.Floor(a)
	case OpCeil:
		z.Ceil(a)
	case OpRound:
		z.Round(a)
	case OpTrunc:
		z.Trunc(a)
	default:
		panic("mpfr system: bad op " + op.String())
	}
}

// mod computes the truncated remainder a − trunc(a/b)·b, with the quotient
// and product in tmp.
func (s *MPFRSystem) mod(z, a, b *mpfr.Float, tmp *modScratch) {
	if a.IsNaN() || b.IsNaN() || a.IsInf() || b.IsZero() {
		z.SetNaN()
		return
	}
	if b.IsInf() || a.IsZero() {
		z.Set(a, s.rnd)
		return
	}
	q, t := tmp[0], tmp[1]
	q.Div(a, b, mpfr.RoundTowardZero)
	q.Trunc(q)
	t.Mul(q, b, mpfr.RoundNearestEven)
	z.Sub(a, t, s.rnd)
}

// FromFloat64 promotes an IEEE double exactly (prec >= 53 loses nothing).
func (s *MPFRSystem) FromFloat64(v float64) Value {
	z := s.new()
	z.SetFloat64(v, s.rnd)
	return z
}

// ToFloat64 demotes with correct rounding to binary64.
func (s *MPFRSystem) ToFloat64(v Value) float64 {
	return s.get(v).Float64(mpfr.RoundNearestEven)
}

// FromInt64 promotes an integer.
func (s *MPFRSystem) FromInt64(i int64) Value {
	z := s.new()
	z.SetInt64(i, s.rnd)
	return z
}

// ToInt64 converts with the given rounding control.
func (s *MPFRSystem) ToInt64(v Value, rc fpu.RoundingControl) (int64, bool) {
	return s.get(v).Int64(mpfrRounding(rc))
}

// mpfrRounding maps an x64 rounding control to the MPFR rounding mode.
func mpfrRounding(rc fpu.RoundingControl) mpfr.RoundingMode {
	switch rc {
	case fpu.RCDown:
		return mpfr.RoundTowardNegative
	case fpu.RCUp:
		return mpfr.RoundTowardPositive
	case fpu.RCZero:
		return mpfr.RoundTowardZero
	default:
		return mpfr.RoundNearestEven
	}
}

// Compare orders two values; NaNs are unordered.
func (s *MPFRSystem) Compare(a, b Value) (int, bool) { return compareMPFR(s.get(a), s.get(b)) }

func compareMPFR(x, y *mpfr.Float) (int, bool) {
	if x.IsNaN() || y.IsNaN() {
		return 0, true
	}
	return x.Cmp(y), false
}

// IsNaN reports whether v is NaN.
func (s *MPFRSystem) IsNaN(v Value) bool { return s.get(v).IsNaN() }

// Format renders the shadow value at full precision for hijacked output.
func (s *MPFRSystem) Format(v Value) string { return s.get(v).Text(0) }

// OpCycles estimates per-op cost in cycles as a function of precision,
// calibrated so the 200-bit points match the paper's §5.3 measurements
// (add ≈ 93 cycles, divide ≈ 2175 cycles) and the growth shapes match
// Figure 11 (linear add, quadratic mul/div at large precision).
func (s *MPFRSystem) OpCycles(op Op) uint64 {
	l := uint64((s.prec + 63) / 64) // limb count
	add := 45 + 12*l
	mul := 55 + 12*l*l
	div := 90 + 130*l*l
	switch op {
	case OpAdd, OpSub, OpAbs, OpNeg, OpMin, OpMax, OpFloor, OpCeil, OpRound, OpTrunc:
		return add
	case OpMul:
		return mul
	case OpFMA:
		return mul + add
	case OpDiv, OpMod:
		return div
	case OpSqrt:
		return 2 * div
	case OpSin, OpCos, OpTan, OpAsin, OpAcos, OpAtan, OpAtan2,
		OpExp, OpLog, OpLog2, OpLog10, OpPow, OpHypot:
		// Series evaluation: O(prec) multiplications of guarded precision.
		return 10 * div
	default:
		return add
	}
}
