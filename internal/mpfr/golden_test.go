package mpfr_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fpvm/internal/arith"
	"fpvm/internal/mpfr"
	"fpvm/internal/posit"
)

// The golden digests pin every result bit of the 200-bit operations: for
// each op, the SHA-256 of (value bits, ternary) over goldenN seeded inputs,
// in all five rounding modes. They were recorded before the mpnat kernels
// were rewritten for destination passing, so any change to a value or a
// ternary — including in the faithful transcendentals, whose exact output
// depends on every kernel beneath them — fails the test. Decimal
// formatting and posit32 Apply on the same inputs are pinned too, because
// both compute through mpnat (package posit rounds through mpfr).

const (
	goldenPrec = 200
	goldenN    = 1000
	goldenFile = "testdata/golden200.txt"
)

// inputDomain selects how a golden input is drawn.
type inputDomain int

const (
	domAny  inputDomain = iota // any sign, exponent in [-40, 40]
	domUnit                    // |x| < 1, mostly; for asin and acos
	domPos                     // positive; for the logarithms
)

type goldenOp struct {
	name  string
	arith arith.Op
	arity int
	dom   inputDomain
	f     func(z *mpfr.Float, a []*mpfr.Float, rnd mpfr.RoundingMode) int
}

var goldenOps = []goldenOp{
	{"Add", arith.OpAdd, 2, domAny, func(z *mpfr.Float, a []*mpfr.Float, rnd mpfr.RoundingMode) int { return z.Add(a[0], a[1], rnd) }},
	{"Sub", arith.OpSub, 2, domAny, func(z *mpfr.Float, a []*mpfr.Float, rnd mpfr.RoundingMode) int { return z.Sub(a[0], a[1], rnd) }},
	{"Mul", arith.OpMul, 2, domAny, func(z *mpfr.Float, a []*mpfr.Float, rnd mpfr.RoundingMode) int { return z.Mul(a[0], a[1], rnd) }},
	{"Div", arith.OpDiv, 2, domAny, func(z *mpfr.Float, a []*mpfr.Float, rnd mpfr.RoundingMode) int { return z.Div(a[0], a[1], rnd) }},
	{"Sqrt", arith.OpSqrt, 1, domPos, func(z *mpfr.Float, a []*mpfr.Float, rnd mpfr.RoundingMode) int { return z.Sqrt(a[0], rnd) }},
	{"FMA", arith.OpFMA, 3, domAny, func(z *mpfr.Float, a []*mpfr.Float, rnd mpfr.RoundingMode) int { return z.FMA(a[0], a[1], a[2], rnd) }},
	{"Sin", arith.OpSin, 1, domAny, func(z *mpfr.Float, a []*mpfr.Float, rnd mpfr.RoundingMode) int { return z.Sin(a[0], rnd) }},
	{"Cos", arith.OpCos, 1, domAny, func(z *mpfr.Float, a []*mpfr.Float, rnd mpfr.RoundingMode) int { return z.Cos(a[0], rnd) }},
	{"Tan", arith.OpTan, 1, domAny, func(z *mpfr.Float, a []*mpfr.Float, rnd mpfr.RoundingMode) int { return z.Tan(a[0], rnd) }},
	{"Asin", arith.OpAsin, 1, domUnit, func(z *mpfr.Float, a []*mpfr.Float, rnd mpfr.RoundingMode) int { return z.Asin(a[0], rnd) }},
	{"Acos", arith.OpAcos, 1, domUnit, func(z *mpfr.Float, a []*mpfr.Float, rnd mpfr.RoundingMode) int { return z.Acos(a[0], rnd) }},
	{"Atan", arith.OpAtan, 1, domAny, func(z *mpfr.Float, a []*mpfr.Float, rnd mpfr.RoundingMode) int { return z.Atan(a[0], rnd) }},
	{"Atan2", arith.OpAtan2, 2, domAny, func(z *mpfr.Float, a []*mpfr.Float, rnd mpfr.RoundingMode) int { return z.Atan2(a[0], a[1], rnd) }},
	{"Exp", arith.OpExp, 1, domAny, func(z *mpfr.Float, a []*mpfr.Float, rnd mpfr.RoundingMode) int { return z.Exp(a[0], rnd) }},
	{"Log", arith.OpLog, 1, domPos, func(z *mpfr.Float, a []*mpfr.Float, rnd mpfr.RoundingMode) int { return z.Log(a[0], rnd) }},
	{"Log2", arith.OpLog2, 1, domPos, func(z *mpfr.Float, a []*mpfr.Float, rnd mpfr.RoundingMode) int { return z.Log2(a[0], rnd) }},
	{"Log10", arith.OpLog10, 1, domPos, func(z *mpfr.Float, a []*mpfr.Float, rnd mpfr.RoundingMode) int { return z.Log10(a[0], rnd) }},
	{"Pow", arith.OpPow, 2, domAny, func(z *mpfr.Float, a []*mpfr.Float, rnd mpfr.RoundingMode) int { return z.Pow(a[0], a[1], rnd) }},
	{"Hypot", arith.OpHypot, 2, domAny, func(z *mpfr.Float, a []*mpfr.Float, rnd mpfr.RoundingMode) int { return z.Hypot(a[0], a[1], rnd) }},
	{"Floor", arith.OpFloor, 1, domAny, func(z *mpfr.Float, a []*mpfr.Float, _ mpfr.RoundingMode) int { return z.Floor(a[0]) }},
	{"Ceil", arith.OpCeil, 1, domAny, func(z *mpfr.Float, a []*mpfr.Float, _ mpfr.RoundingMode) int { return z.Ceil(a[0]) }},
	{"Round", arith.OpRound, 1, domAny, func(z *mpfr.Float, a []*mpfr.Float, _ mpfr.RoundingMode) int { return z.Round(a[0]) }},
	{"Trunc", arith.OpTrunc, 1, domAny, func(z *mpfr.Float, a []*mpfr.Float, _ mpfr.RoundingMode) int { return z.Trunc(a[0]) }},
	// Conversions: the float64 and int64 round trips, digested through z.
	// They have no posit counterpart (noPosit).
	{"Float64", noPosit, 1, domAny, func(z *mpfr.Float, a []*mpfr.Float, rnd mpfr.RoundingMode) int {
		return z.SetFloat64(a[0].Float64(rnd), rnd)
	}},
	{"Int64", noPosit, 1, domAny, func(z *mpfr.Float, a []*mpfr.Float, rnd mpfr.RoundingMode) int {
		v, ok := a[0].Int64(rnd)
		z.SetInt64(v, rnd)
		if ok {
			return 1
		}
		return 0
	}},
}

// noPosit marks a golden op without a posit32 digest; no arith.Op has
// this value.
const noPosit = arith.Op(255)

var goldenModes = []mpfr.RoundingMode{
	mpfr.RoundNearestEven, mpfr.RoundTowardZero, mpfr.RoundTowardPositive,
	mpfr.RoundTowardNegative, mpfr.RoundNearestAway,
}

// goldenInput draws one 200-bit operand. Most are full-width random
// mantissas; a few are specials, short integers and perfect squares, so
// exact results and every special-value branch are pinned as well.
func goldenInput(r *rand.Rand, dom inputDomain) *mpfr.Float {
	x := mpfr.New(goldenPrec)
	switch k := r.Intn(50); {
	case k == 0:
		x.SetZero([]int{1, -1}[r.Intn(2)])
		return x
	case k == 1:
		x.SetInf([]int{1, -1}[r.Intn(2)])
		return x
	case k == 2:
		return x.SetNaN()
	case k == 3:
		x.SetInt64(int64(r.Intn(3)-1), mpfr.RoundNearestEven)
	case k < 7:
		v := r.Int63n(1 << 30)
		x.SetInt64(v*v, mpfr.RoundNearestEven) // perfect square
		x.Mul2Exp(x, 2*int64(r.Intn(41)-20), mpfr.RoundNearestEven)
	case k < 10:
		x.SetInt64(r.Int63n(1<<20)-(1<<19), mpfr.RoundNearestEven) // short mantissa
		x.Mul2Exp(x, int64(r.Intn(41)-20), mpfr.RoundNearestEven)
	default:
		// 200 random bits, assembled exactly from 64-bit pieces.
		w := mpfr.New(goldenPrec)
		x.SetUint64(r.Uint64()>>56|1<<7, mpfr.RoundNearestEven)
		for i := 0; i < 3; i++ {
			x.Mul2Exp(x, 64, mpfr.RoundNearestEven)
			w.SetUint64(r.Uint64(), mpfr.RoundNearestEven)
			x.Add(x, w, mpfr.RoundNearestEven)
		}
		exp := int64(r.Intn(81) - 40)
		if dom == domUnit {
			exp = int64(-r.Intn(21))
		}
		x.Mul2Exp(x, exp-x.BinExp(), mpfr.RoundNearestEven)
		if dom != domPos && r.Intn(2) == 0 {
			x.Neg(x, mpfr.RoundNearestEven)
		}
	}
	return x
}

// goldenInputs returns the seeded operand tuples for op index i.
func goldenInputs(i int, op goldenOp) [][]*mpfr.Float {
	r := rand.New(rand.NewSource(int64(1000 + i)))
	in := make([][]*mpfr.Float, goldenN)
	for n := range in {
		in[n] = make([]*mpfr.Float, op.arity)
		for k := range in[n] {
			in[n][k] = goldenInput(r, op.dom)
		}
	}
	return in
}

func writeFloat(h hash.Hash, x *mpfr.Float) {
	var cls byte
	switch {
	case x.IsNaN():
		cls = 1
	case x.IsInf():
		cls = 2
	case x.IsZero():
		cls = 3
	}
	if x.Signbit() {
		cls |= 8
	}
	mant, exp, _ := x.MantExp()
	var buf [8]byte
	h.Write([]byte{cls})
	binary.LittleEndian.PutUint64(buf[:], uint64(exp))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(len(mant)))
	h.Write(buf[:])
	for _, w := range mant {
		binary.LittleEndian.PutUint64(buf[:], w)
		h.Write(buf[:])
	}
}

// goldenDigests computes one "name hex" line per op, mpfr then posit32.
func goldenDigests() []string {
	var lines []string
	ps := arith.NewPosit(posit.Posit32)
	var posLines []string
	for i, op := range goldenOps {
		in := goldenInputs(i, op)
		h, ph := sha256.New(), sha256.New()
		for n, args := range in {
			z := mpfr.New(goldenPrec)
			t := op.f(z, args, goldenModes[n%len(goldenModes)])
			writeFloat(h, z)
			h.Write([]byte{byte(int8(t))})

			if op.arith == noPosit {
				continue
			}
			pargs := make([]arith.Value, len(args))
			for k, a := range args {
				pargs[k] = posit.Posit32.FromMPFR(a, false)
			}
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], uint64(ps.Apply(op.arith, pargs...).(posit.Posit)))
			ph.Write(buf[:])
		}
		lines = append(lines, fmt.Sprintf("%s %x", op.name, h.Sum(nil)))
		if op.arith != noPosit {
			posLines = append(posLines, fmt.Sprintf("posit32.%s %x", op.name, ph.Sum(nil)))
		}
	}
	// Formatting: each input's decimal text at full and at 17 digits.
	th := sha256.New()
	for _, args := range goldenInputs(len(goldenOps), goldenOp{arity: 1}) {
		fmt.Fprintf(th, "%s %s\n", args[0].Text(0), args[0].Text(17))
	}
	lines = append(lines, fmt.Sprintf("Text %x", th.Sum(nil)))
	return append(lines, posLines...)
}

func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("golden digests take a few seconds")
	}
	got := goldenDigests()
	f, err := os.Open(filepath.FromSlash(goldenFile))
	if err != nil {
		t.Fatalf("%v; computed digests:\n%s", err, strings.Join(got, "\n"))
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d digests, computed %d", goldenFile, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("digest mismatch:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
