package arith

import (
	"math"
	"strconv"

	"fpvm/internal/fpu"
)

// Vanilla is the validation arithmetic system of §4.3: it re-implements
// IEEE binary64 semantics using the host's float64. Running a program under
// FPVM with Vanilla plugged in must produce bit-identical results to native
// execution — the §5.2 validation experiment.
type Vanilla struct{}

var _ System = Vanilla{}

// Name returns "vanilla".
func (Vanilla) Name() string { return "vanilla" }

// Apply evaluates op in IEEE binary64 through Float64Op.
func (Vanilla) Apply(op Op, args ...Value) Value {
	var x [3]float64
	for i, a := range args {
		x[i] = a.(float64)
	}
	return Float64Op(op, x[0], x[1], x[2]).Value
}

// Float64Op is the one IEEE binary64 kernel: it evaluates op on a, b and c
// (only the first op.Arity() are read) and returns the value with the
// exception flags it raises. Vanilla's Apply and its float64 cells run
// through it; native retirement (FPSpy, patch sites that do not trap) goes
// through the machine's own FPU dispatch instead. It dispatches to
// the same software FPU kernels the native machine executes, rather than to
// bare Go expressions, so the §5.2 bit-exactness guarantee holds by
// construction, NaN payloads included: the differential oracle caught Go's
// math package producing a different quiet-NaN payload (0x7FF8…001) than
// the x64 indefinite QNaN the machine propagates.
func Float64Op(op Op, a, b, c float64) fpu.Result {
	switch op {
	case OpAdd:
		return fpu.Add(a, b)
	case OpSub:
		return fpu.Sub(a, b)
	case OpMul:
		return fpu.Mul(a, b)
	case OpDiv:
		return fpu.Div(a, b)
	case OpSqrt:
		return fpu.Sqrt(a)
	case OpFMA:
		return fpu.FMAdd(a, b, c)
	case OpMin:
		return fpu.Min(a, b)
	case OpMax:
		return fpu.Max(a, b)
	case OpAbs:
		return fpu.Fabs(a)
	case OpNeg:
		return fpu.Fneg(a)
	case OpSin:
		return fpu.Fsin(a)
	case OpCos:
		return fpu.Fcos(a)
	case OpTan:
		return fpu.Ftan(a)
	case OpAsin:
		return fpu.Fasin(a)
	case OpAcos:
		return fpu.Facos(a)
	case OpAtan:
		return fpu.Fatan(a)
	case OpAtan2:
		return fpu.Fatan2(a, b)
	case OpExp:
		return fpu.Fexp(a)
	case OpLog:
		return fpu.Flog(a)
	case OpLog2:
		return fpu.Flog2(a)
	case OpLog10:
		return fpu.Flog10(a)
	case OpPow:
		return fpu.Fpow(a, b)
	case OpMod:
		return fpu.Fmod(a, b)
	case OpHypot:
		return fpu.Fhypot(a, b)
	case OpFloor:
		return fpu.Ffloor(a)
	case OpCeil:
		return fpu.Fceil(a)
	case OpRound:
		return fpu.Fround(a)
	case OpTrunc:
		return fpu.Ftrunc(a)
	default:
		panic("vanilla: bad op " + op.String())
	}
}

// FromFloat64 promotes an IEEE double (identity for Vanilla).
func (Vanilla) FromFloat64(v float64) Value { return v }

// ToFloat64 demotes to an IEEE double (identity for Vanilla).
func (Vanilla) ToFloat64(v Value) float64 { return v.(float64) }

// FromInt64 converts an integer.
func (Vanilla) FromInt64(i int64) Value { return float64(i) }

// ToInt64 converts to an integer with x64 cvtsd2si semantics.
func (Vanilla) ToInt64(v Value, rc fpu.RoundingControl) (int64, bool) {
	return toInt64(v.(float64), rc)
}

// toInt64 is cvtsd2si under rc; ok is false for the integer indefinite.
func toInt64(x float64, rc fpu.RoundingControl) (int64, bool) {
	r := fpu.Cvtsd2si(x, rc)
	return r.Value, r.Flags&fpu.FlagInvalid == 0
}

// Compare orders two doubles; NaNs are unordered.
func (Vanilla) Compare(a, b Value) (int, bool) { return compare64(a.(float64), b.(float64)) }

// IsNaN reports whether v is a NaN.
func (Vanilla) IsNaN(v Value) bool { return math.IsNaN(v.(float64)) }

// Format renders the value like printf %g.
func (Vanilla) Format(v Value) string { return format64(v.(float64)) }

func format64(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// OpCycles reports the (small) cost of host-double emulation.
func (Vanilla) OpCycles(op Op) uint64 {
	switch op {
	case OpDiv, OpSqrt, OpMod:
		return 30
	case OpSin, OpCos, OpTan, OpAsin, OpAcos, OpAtan, OpAtan2,
		OpExp, OpLog, OpLog2, OpLog10, OpPow, OpHypot:
		return 130
	default:
		return 12
	}
}
