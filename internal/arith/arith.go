// Package arith defines FPVM's alternative arithmetic interface (§4.3 of
// the paper): the set of scalar operations an arithmetic system must provide
// to be plugged into the trap-and-emulate engine, plus the three ports the
// paper evaluates — Vanilla (IEEE double re-implementation, for validation),
// MPFR (arbitrary precision), and Posit.
//
// The paper's interface has 37 scalar functions: 23 arithmetic operations,
// 10 conversions, and 4 comparisons. Here the arithmetic operations are an
// Op enumeration dispatched through Apply (the Go analog of the C op_map of
// function pointers), and conversions/comparisons are interface methods.
// The emulator handles vectors by calling these scalar entry points once
// per lane, exactly as described in §4.1.
package arith

import (
	"fmt"

	"fpvm/internal/fpu"
)

// Value is an opaque shadow value owned by an arithmetic system.
type Value any

// Op enumerates the scalar arithmetic operations of the interface
// (the "23 arithmetic operations" of §4.3, plus rounding-to-integral forms
// that the paper counts among its conversions).
type Op uint8

const (
	// Core arithmetic.
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpSqrt
	OpFMA
	OpMin
	OpMax
	OpAbs
	OpNeg
	// Trigonometric.
	OpSin
	OpCos
	OpTan
	OpAsin
	OpAcos
	OpAtan
	OpAtan2
	// Exponential and logarithmic.
	OpExp
	OpLog
	OpLog2
	OpLog10
	OpPow
	// Remainder and norm.
	OpMod
	OpHypot
	// Rounding to integral values (conversion family).
	OpFloor
	OpCeil
	OpRound
	OpTrunc

	NumOps
)

var opNames = [NumOps]string{
	"add", "sub", "mul", "div", "sqrt", "fma", "min", "max", "abs", "neg",
	"sin", "cos", "tan", "asin", "acos", "atan", "atan2",
	"exp", "log", "log2", "log10", "pow", "mod", "hypot",
	"floor", "ceil", "round", "trunc",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("arith.Op(%d)", uint8(o))
}

// Arity returns the number of Value arguments op consumes.
func (o Op) Arity() int {
	switch o {
	case OpAdd, OpSub, OpMul, OpDiv, OpMin, OpMax, OpAtan2, OpPow, OpMod, OpHypot:
		return 2
	case OpFMA:
		return 3
	default:
		return 1
	}
}

// System is an alternative arithmetic system pluggable into FPVM.
//
// Apply evaluates one scalar operation. Conversions move values across the
// IEEE boundary (promotion and demotion in the paper's terms). Compare
// returns the ordering (-1, 0, +1) and whether the operands are unordered
// (either is NaN/NaR); IsNaN, Sign, and Equal complete the comparison set.
type System interface {
	// Name identifies the system ("vanilla", "mpfr200", "posit32", ...).
	Name() string

	// Apply evaluates op on args (len(args) == op.Arity()).
	Apply(op Op, args ...Value) Value

	// Conversions (promotion/demotion).
	FromFloat64(v float64) Value
	ToFloat64(v Value) float64
	FromInt64(i int64) Value
	ToInt64(v Value, rc fpu.RoundingControl) (int64, bool)

	// Comparisons.
	Compare(a, b Value) (ord int, unordered bool)
	IsNaN(v Value) bool

	// Format renders a shadow value for the hijacked output path
	// (§2's "printing problem").
	Format(v Value) string

	// OpCycles estimates the cycle cost of one scalar operation in this
	// system, used by the simulator's deterministic cost model. The
	// estimates for MPFR are calibrated against the measured curve of
	// Figure 11. It must be a pure function of the system and op: FPVM
	// reads it once per op when it attaches.
	OpCycles(op Op) uint64
}
