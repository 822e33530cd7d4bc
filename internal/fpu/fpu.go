// Package fpu implements the software floating point unit of the machine
// simulator: IEEE 754 binary64 operations with full x64 %mxcsr semantics —
// per-event sticky condition flags, parallel exception masks, and precise
// fault signaling. This is the "hardware" whose exceptions drive FPVM's
// trap-and-emulate engine (§4.1 of the paper).
//
// Add, Sub, Mul, Div and Sqrt first try a fast path: when every operand's
// magnitude lies in the exponent window [2^-480, 2^481) (inWindow, one
// unsigned compare per operand), the op computes the hardware result and
// decides PE from an exact residual, the 2Sum error term for add/sub and an
// FMA residual (a·b - p, q·b - a, s·s - a) for mul, div and sqrt. Inside
// the window no result or residual can overflow, underflow or go
// subnormal, so the residual is the exact rounding error and PE is the
// only flag the op can raise. Every other operand (zero, subnormal,
// Inf, NaN, a NaN-box, or a magnitude outside the window) takes the exact
// path below.
//
// On the exact path, inexact (PE) detection uses 2Sum residuals for
// add/sub. Mul, div and sqrt ask one question on integer mantissas, "is
// x·y exactly z?" (prodIs: a·b = p, q·b = a, s·s = a), and a fused
// multiply-add checks a·b + c the same way (fmaExact). An FMA residual
// would underflow to zero near the subnormal range and report a rounded
// result as exact; the integer checks cannot, and none of them allocates.
package fpu

import (
	"math"
	"math/bits"
)

// Flags is the set of IEEE exception condition flags, with the same bit
// positions as the low six bits of x64's %mxcsr.
type Flags uint32

// Exception flag bits (matching %mxcsr bits 0–5).
const (
	FlagInvalid   Flags = 1 << 0 // IE: sNaN operand, 0/0, Inf−Inf, ...
	FlagDenormal  Flags = 1 << 1 // DE: subnormal source operand
	FlagDivZero   Flags = 1 << 2 // ZE: finite / 0
	FlagOverflow  Flags = 1 << 3 // OE: rounded magnitude above max finite
	FlagUnderflow Flags = 1 << 4 // UE: tiny and inexact result
	FlagInexact   Flags = 1 << 5 // PE: result was rounded
)

// All covers every exception flag.
const FlagAll Flags = FlagInvalid | FlagDenormal | FlagDivZero |
	FlagOverflow | FlagUnderflow | FlagInexact

func (f Flags) String() string {
	if f == 0 {
		return "-"
	}
	s := ""
	add := func(bit Flags, name string) {
		if f&bit != 0 {
			if s != "" {
				s += "|"
			}
			s += name
		}
	}
	add(FlagInvalid, "IE")
	add(FlagDenormal, "DE")
	add(FlagDivZero, "ZE")
	add(FlagOverflow, "OE")
	add(FlagUnderflow, "UE")
	add(FlagInexact, "PE")
	return s
}

// MXCSR models the x64 media control and status register: sticky flags in
// bits 0–5, exception masks in bits 7–12, rounding control in bits 13–14.
type MXCSR uint32

// Field layout constants.
const (
	mxcsrMaskShift = 7
	mxcsrRCShift   = 13
)

// RoundingControl values for MXCSR bits 13–14.
type RoundingControl uint32

const (
	RCNearest RoundingControl = iota // round to nearest even
	RCDown                           // toward −Inf
	RCUp                             // toward +Inf
	RCZero                           // truncate
)

// DefaultMXCSR is the power-on value: all exceptions masked, RNE.
const DefaultMXCSR MXCSR = MXCSR(FlagAll) << mxcsrMaskShift

// AllExceptionsUnmasked returns an MXCSR with every exception unmasked,
// which is how FPVM arms the hardware so rounding/NaN events trap.
func AllExceptionsUnmasked() MXCSR { return 0 }

// Flags returns the sticky exception flags.
func (m MXCSR) Flags() Flags { return Flags(m) & FlagAll }

// SetFlags ORs new sticky flags in (they are sticky: software must clear).
func (m *MXCSR) SetFlags(f Flags) { *m |= MXCSR(f & FlagAll) }

// ClearFlags zeroes the sticky flags, as FPVM does before resuming.
func (m *MXCSR) ClearFlags() { *m &^= MXCSR(FlagAll) }

// Masks returns the exception mask bits as a Flags set; a set bit means the
// corresponding exception is masked (does not trap).
func (m MXCSR) Masks() Flags { return Flags(m>>mxcsrMaskShift) & FlagAll }

// SetMasks replaces the exception mask bits.
func (m *MXCSR) SetMasks(f Flags) {
	*m = (*m &^ (MXCSR(FlagAll) << mxcsrMaskShift)) | MXCSR(f&FlagAll)<<mxcsrMaskShift
}

// Unmasked returns the subset of f that would trap under this MXCSR.
func (m MXCSR) Unmasked(f Flags) Flags { return f & FlagAll &^ m.Masks() }

// RC returns the rounding control field.
func (m MXCSR) RC() RoundingControl {
	return RoundingControl(m>>mxcsrRCShift) & 3
}

// SetRC sets the rounding control field.
func (m *MXCSR) SetRC(rc RoundingControl) {
	*m = (*m &^ (3 << mxcsrRCShift)) | MXCSR(rc&3)<<mxcsrRCShift
}

// --- NaN classification -----------------------------------------------------

const (
	expMask   = uint64(0x7FF) << 52
	quietBit  = uint64(1) << 51
	fracMask  = uint64(1)<<52 - 1
	signMask  = uint64(1) << 63
	qnanBits  = uint64(0x7FF8000000000000) // default quiet NaN ("indefinite")
	indefInt  = int64(math.MinInt64)       // integer indefinite for cvt
	maxFinite = math.MaxFloat64
)

// IsNaN reports whether bits encode any NaN.
func IsNaN(bits uint64) bool {
	return bits&expMask == expMask && bits&fracMask != 0
}

// IsSNaN reports whether bits encode a signaling NaN (quiet bit clear).
func IsSNaN(bits uint64) bool {
	return IsNaN(bits) && bits&quietBit == 0
}

// IsQNaN reports whether bits encode a quiet NaN.
func IsQNaN(bits uint64) bool {
	return IsNaN(bits) && bits&quietBit != 0
}

// IsSubnormal reports whether bits encode a nonzero subnormal.
func IsSubnormal(bits uint64) bool {
	return bits&expMask == 0 && bits&fracMask != 0
}

// Quiet returns bits with the quiet bit set (the hardware's response when it
// must produce a NaN from a signaling input with IE masked).
func Quiet(bits uint64) uint64 { return bits | quietBit }

// QNaN returns the default quiet NaN bit pattern.
func QNaN() uint64 { return qnanBits }

func isSNaNf(v float64) bool { return IsSNaN(math.Float64bits(v)) }
func isNaNf(v float64) bool  { return math.IsNaN(v) }
func isSubn(v float64) bool  { return IsSubnormal(math.Float64bits(v)) }
func isInff(v float64) bool  { return math.IsInf(v, 0) }

// operandFlags returns the DE/IE flags contributed by source operands.
func operandFlags(vals ...float64) Flags {
	var f Flags
	for _, v := range vals {
		if isSubn(v) {
			f |= FlagDenormal
		}
		if isSNaNf(v) {
			f |= FlagInvalid
		}
	}
	return f
}

// propagateNaN returns the quieted NaN the hardware would produce from the
// given operands (x64 SSE prefers the first NaN source).
func propagateNaN(vals ...float64) float64 {
	for _, v := range vals {
		if isNaNf(v) {
			return math.Float64frombits(Quiet(math.Float64bits(v)))
		}
	}
	return math.Float64frombits(qnanBits)
}

// Result is the outcome of executing one scalar FP operation.
type Result struct {
	Value float64
	Flags Flags
}

// postFlags computes OE/UE/PE for a finite-input operation with rounded
// result r and its inexactness verdict.
func postFlags(r float64, inexact bool) Flags {
	var f Flags
	if isInff(r) {
		return FlagOverflow | FlagInexact
	}
	if inexact {
		f |= FlagInexact
		if r == 0 || isSubn(r) {
			f |= FlagUnderflow
		}
	}
	return f
}

// The fast-path exponent window: biased exponents winLo through
// winLo+winSpan-1 (543–1503), that is |x| in [2^-480, 2^481). For operands
// inside it:
//   - a sum or difference is a multiple of 2^-532 (the lowest bit an
//     operand can have), so a nonzero one is normal, and its magnitude
//     stays below 2^482;
//   - a product lies in [2^-960, 2^962) and its residual a·b - p is a
//     multiple of 2^-1064, so the FMA computes it exactly;
//   - a quotient lies in (2^-961, 2^961), and its remainder a - q·b is a
//     multiple of about |a|·2^-105 >= 2^-586;
//   - a square root lies in [2^-240, 2^241), and its remainder a - s·s is
//     a multiple of about a·2^-106.
//
// Every result is then normal and finite, and every residual is exact, so
// it is zero exactly when the result is. The window rules out zero,
// subnormals, Inf and NaN (NaN-boxes included) by construction.
const (
	winLo   = 543
	winSpan = 1504 - winLo
)

// inWindow reports whether |x| lies in the fast-path window.
func inWindow(x float64) bool {
	return (math.Float64bits(x)>>52&0x7FF)-winLo < winSpan
}

// inexactIf returns PE when the residual is nonzero.
func inexactIf(residual float64) Flags {
	if residual != 0 {
		return FlagInexact
	}
	return 0
}

// twoSum returns the rounding error of s = a + b (2Sum).
func twoSum(a, b, s float64) float64 {
	t := s - a
	return (a - (s - t)) + (b - t)
}

// Add executes addsd.
func Add(a, b float64) Result {
	if inWindow(a) && inWindow(b) {
		s := a + b
		return Result{s, inexactIf(twoSum(a, b, s))}
	}
	return addExact(a, b)
}

// addExact is Add for any operands.
func addExact(a, b float64) Result {
	f := operandFlags(a, b)
	if isNaNf(a) || isNaNf(b) {
		return Result{propagateNaN(a, b), f}
	}
	if isInff(a) && isInff(b) && math.Signbit(a) != math.Signbit(b) {
		return Result{math.Float64frombits(qnanBits), f | FlagInvalid}
	}
	s := a + b
	if isInff(a) || isInff(b) {
		return Result{s, f}
	}
	return Result{s, f | postFlags(s, addInexact(a, b, s))}
}

// Sub executes subsd.
func Sub(a, b float64) Result {
	if inWindow(a) && inWindow(b) {
		s := a - b
		return Result{s, inexactIf(twoSum(a, -b, s))}
	}
	return subExact(a, b)
}

// subExact is Sub for any operands.
func subExact(a, b float64) Result {
	f := operandFlags(a, b)
	if isNaNf(a) || isNaNf(b) {
		return Result{propagateNaN(a, b), f}
	}
	if isInff(a) && isInff(b) && math.Signbit(a) == math.Signbit(b) {
		return Result{math.Float64frombits(qnanBits), f | FlagInvalid}
	}
	s := a - b
	if isInff(a) || isInff(b) {
		return Result{s, f}
	}
	return Result{s, f | postFlags(s, addInexact(a, -b, s))}
}

// addInexact reports whether s != a+b exactly, using the 2Sum error term.
func addInexact(a, b, s float64) bool {
	if isInff(s) {
		return true
	}
	return twoSum(a, b, s) != 0
}

// Mul executes mulsd.
func Mul(a, b float64) Result {
	if inWindow(a) && inWindow(b) {
		// The conversion rounds the product, so the compiler cannot fuse
		// it into the residual's FMA and leave the residual zero.
		p := float64(a * b)
		return Result{p, inexactIf(math.FMA(a, b, -p))}
	}
	return mulExact(a, b)
}

// mulExact is Mul for any operands.
func mulExact(a, b float64) Result {
	f := operandFlags(a, b)
	if isNaNf(a) || isNaNf(b) {
		return Result{propagateNaN(a, b), f}
	}
	if (a == 0 && isInff(b)) || (b == 0 && isInff(a)) {
		return Result{math.Float64frombits(qnanBits), f | FlagInvalid}
	}
	p := a * b
	if isInff(a) || isInff(b) {
		return Result{p, f}
	}
	return Result{p, f | postFlags(p, !prodIs(a, b, p))}
}

// Div executes divsd.
func Div(a, b float64) Result {
	if inWindow(a) && inWindow(b) {
		q := a / b
		return Result{q, inexactIf(math.FMA(q, b, -a))}
	}
	return divExact(a, b)
}

// divExact is Div for any operands.
func divExact(a, b float64) Result {
	f := operandFlags(a, b)
	if isNaNf(a) || isNaNf(b) {
		return Result{propagateNaN(a, b), f}
	}
	switch {
	case isInff(a) && isInff(b), a == 0 && b == 0:
		return Result{math.Float64frombits(qnanBits), f | FlagInvalid}
	case b == 0:
		return Result{math.Copysign(math.Inf(1), a) * math.Copysign(1, b), f | FlagDivZero}
	case isInff(a), isInff(b):
		return Result{a / b, f}
	}
	q := a / b
	return Result{q, f | postFlags(q, !prodIs(q, b, a))}
}

// Sqrt executes sqrtsd. Its window test keeps the sign bit, so a negative
// operand takes the exact path (and raises IE there).
func Sqrt(a float64) Result {
	if math.Float64bits(a)>>52-winLo < winSpan {
		s := math.Sqrt(a)
		return Result{s, inexactIf(math.FMA(s, s, -a))}
	}
	return sqrtExact(a)
}

// sqrtExact is Sqrt for any operand.
func sqrtExact(a float64) Result {
	f := operandFlags(a)
	if isNaNf(a) {
		return Result{propagateNaN(a), f}
	}
	if a < 0 {
		return Result{math.Float64frombits(qnanBits), f | FlagInvalid}
	}
	s := math.Sqrt(a) // exact per IEEE for ±0, +Inf
	if a == 0 || isInff(a) {
		return Result{s, f}
	}
	return Result{s, f | postFlags(s, !prodIs(s, s, a))}
}

// Min executes minsd with x64 semantics: min(a,b) = a < b ? a : b, and any
// NaN (or equal-magnitude tie) yields the second operand.
func Min(a, b float64) Result {
	f := operandFlags(a, b)
	if isNaNf(a) || isNaNf(b) {
		return Result{b, f}
	}
	if a < b {
		return Result{a, f}
	}
	return Result{b, f}
}

// Max executes maxsd with x64 semantics.
func Max(a, b float64) Result {
	f := operandFlags(a, b)
	if isNaNf(a) || isNaNf(b) {
		return Result{b, f}
	}
	if a > b {
		return Result{a, f}
	}
	return Result{b, f}
}

// FMAdd executes a fused multiply-add: a*b + c with one rounding.
func FMAdd(a, b, c float64) Result {
	f := operandFlags(a, b, c)
	if isNaNf(a) || isNaNf(b) || isNaNf(c) {
		return Result{propagateNaN(a, b, c), f}
	}
	if (a == 0 && isInff(b)) || (b == 0 && isInff(a)) {
		return Result{math.Float64frombits(qnanBits), f | FlagInvalid}
	}
	r := math.FMA(a, b, c)
	if isNaNf(r) { // Inf − Inf inside the fma
		return Result{math.Float64frombits(qnanBits), f | FlagInvalid}
	}
	if isInff(a) || isInff(b) || isInff(c) {
		return Result{r, f}
	}
	return Result{r, f | postFlags(r, !fmaExact(a, b, c))}
}

// fmaExact reports whether a*b + c, for finite a, b and c, is a binary64
// value: then the correctly rounded fma returns it exactly. It works on the
// integer mantissas (a = ma·2^ea and so on), so it neither allocates nor
// over- or underflows.
func fmaExact(a, b, c float64) bool {
	ma, ea := mantExp(a)
	mb, eb := mantExp(b)
	mc, ec := mantExp(c)
	var p wide
	p[1], p[0] = bits.Mul64(ma, mb)
	if p.isZero() {
		return true // the sum is c
	}
	e1 := ea + eb + p.trim()
	if mc == 0 {
		return p.representable(e1) // the sum is the product
	}
	c2 := wide{mc}
	e2 := ec + c2.trim()
	// Align both terms to the lower exponent lo. When one term's top bit is
	// more than 160 bits above lo, the terms have different exponents, the
	// lower one has at most 106 bits, and the sum keeps both its lowest bit
	// (at lo) and a top bit above lo+159: far more than 53 bits apart.
	lo := min(e1, e2)
	if max(e1+p.bitLen(), e2+c2.bitLen())-lo > 160 {
		return false
	}
	p.shl(uint(e1 - lo))
	c2.shl(uint(e2 - lo))
	if negP := math.Signbit(a) != math.Signbit(b); negP == math.Signbit(c) {
		p.add(&c2)
	} else if p.less(&c2) {
		c2.sub(&p)
		p = c2
	} else {
		p.sub(&c2)
	}
	if p.isZero() {
		return true
	}
	e := lo + p.trim()
	return p.representable(e)
}

// prodIs reports whether |x·y| is exactly |z|; every caller's signs agree
// by construction. It compares the trimmed integer mantissa product and
// exponent with z's, so it neither allocates nor underflows. An infinite
// operand never makes an exact product (postFlags reports an infinite
// result as an overflow before it looks at exactness).
func prodIs(x, y, z float64) bool {
	if isInff(x) || isInff(y) || isInff(z) {
		return false
	}
	if x == 0 || y == 0 || z == 0 {
		return (x == 0 || y == 0) && z == 0
	}
	mx, ex := mantExp(x)
	my, ey := mantExp(y)
	mz, ez := mantExp(z)
	var p wide
	p[1], p[0] = bits.Mul64(mx, my)
	e := ex + ey + p.trim()
	r := wide{mz}
	return e == ez+r.trim() && p == r
}

// mantExp splits a finite x into an integer mantissa below 2^53 and an
// exponent, x = ±m·2^e.
func mantExp(x float64) (m uint64, e int) {
	b := math.Float64bits(x)
	m, be := b&fracMask, int(b>>52&0x7FF)
	if be == 0 {
		return m, -1074 // zero or subnormal
	}
	return m | 1<<52, be - 1075
}

// wide is a 192-bit unsigned integer, least significant word first: wide
// enough for an fma's product (106 bits) or addend aligned to within 160
// bits of each other, plus a carry.
type wide [3]uint64

func (w *wide) isZero() bool { return w[0]|w[1]|w[2] == 0 }

func (w *wide) bitLen() int {
	for i := 2; i >= 0; i-- {
		if w[i] != 0 {
			return 64*i + bits.Len64(w[i])
		}
	}
	return 0
}

// trim shifts out the trailing zero bits of a nonzero w and returns their
// number.
func (w *wide) trim() int {
	n := 0
	for w[0] == 0 {
		w[0], w[1], w[2] = w[1], w[2], 0
		n += 64
	}
	t := bits.TrailingZeros64(w[0])
	w.shr(uint(t))
	return n + t
}

func (w *wide) shr(s uint) {
	if s == 0 {
		return
	}
	w[0] = w[0]>>s | w[1]<<(64-s)
	w[1] = w[1]>>s | w[2]<<(64-s)
	w[2] >>= s
}

// shl shifts w left by s <= 160 bits; the caller guarantees no bit leaves
// the top word.
func (w *wide) shl(s uint) {
	for ; s >= 64; s -= 64 {
		w[0], w[1], w[2] = 0, w[0], w[1]
	}
	if s > 0 {
		w[2] = w[2]<<s | w[1]>>(64-s)
		w[1] = w[1]<<s | w[0]>>(64-s)
		w[0] <<= s
	}
}

func (w *wide) add(x *wide) {
	var c uint64
	w[0], c = bits.Add64(w[0], x[0], 0)
	w[1], c = bits.Add64(w[1], x[1], c)
	w[2], _ = bits.Add64(w[2], x[2], c)
}

// sub sets w to w - x; w must not be less than x.
func (w *wide) sub(x *wide) {
	var b uint64
	w[0], b = bits.Sub64(w[0], x[0], 0)
	w[1], b = bits.Sub64(w[1], x[1], b)
	w[2], _ = bits.Sub64(w[2], x[2], b)
}

func (w *wide) less(x *wide) bool {
	for i := 2; i >= 0; i-- {
		if w[i] != x[i] {
			return w[i] < x[i]
		}
	}
	return false
}

// representable reports whether w·2^e, w odd (trimmed), is a finite
// binary64: at most 53 significant bits, lowest bit no lower than the
// smallest subnormal's, magnitude below 2^1024.
func (w *wide) representable(e int) bool {
	n := w.bitLen()
	return n <= 53 && e >= -1074 && e+n <= 1024
}
