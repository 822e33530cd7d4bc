package mpfr

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"fpvm/internal/mpnat"
)

// oraclePrecs are the precisions the correct-rounding oracle runs at: both
// sides of every limb boundary up to 1024 bits, the paper's 200 bits and
// the transcendentals' working precisions at 200 bits (264, 296, 328).
var oraclePrecs = []uint{2, 53, 63, 64, 65, 127, 128, 129, 200, 255, 256, 257, 264, 296, 328, 511, 512, 513, 1024}

var oracleModes = []struct {
	rnd RoundingMode
	big big.RoundingMode
}{
	{RoundNearestEven, big.ToNearestEven},
	{RoundTowardZero, big.ToZero},
	{RoundTowardPositive, big.ToPositiveInf},
	{RoundTowardNegative, big.ToNegativeInf},
	{RoundNearestAway, big.ToNearestAway},
}

// mantKind selects how an oracle operand's mantissa is drawn.
type mantKind int

const (
	mantRandom mantKind = iota // every bit random
	mantOnes                   // all ones: an increment carries out of the top
	mantShort                  // a few significant bits: products and quotients come out exact
	mantSparse                 // the top bit and one low bit
	nMantKinds
)

// oracleFloat returns a finite Float of precision prec whose mantissa is
// drawn by kind, with binary exponent exp (|x| in [2^(exp-1), 2^exp)).
func oracleFloat(r *rand.Rand, prec uint, kind mantKind, neg bool, exp int64) *Float {
	n := int(prec+63) / 64
	m := make(mpnat.Nat, n)
	switch kind {
	case mantRandom:
		for i := range m {
			m[i] = r.Uint64()
		}
	case mantOnes:
		for i := range m {
			m[i] = ^uint64(0)
		}
	case mantShort:
		// Up to 8 significant bits at the top.
		k := min(int(prec), 1+r.Intn(8))
		v := r.Uint64()>>uint(64-k) | 1<<uint(k-1)
		m = mpnat.Shl(mpnat.Nat{v}, uint(int(prec)-k))
	case mantSparse:
		m[0] = 1 << uint(r.Intn(int(min(prec, 64))))
	}
	if len(m) < n {
		m = append(m, make(mpnat.Nat, n-len(m))...)
	}
	if rem := prec % 64; rem != 0 {
		m[n-1] &= 1<<rem - 1
	}
	m[n-1] |= 1 << ((prec - 1) % 64)
	z := New(prec)
	z.form, z.neg, z.exp, z.mant = finite, neg, exp, m
	return z
}

// smallInt returns the integer v held at precision prec: a mantissa that is
// nearly all trailing zero words when prec is large.
func smallInt(prec uint, v int64) *Float {
	z := New(prec)
	z.SetInt64(v, RoundNearestEven)
	return z
}

// mantBig returns x's mantissa as a big.Int.
func mantBig(x *Float) *big.Int {
	m := new(big.Int)
	for i := len(x.mant) - 1; i >= 0; i-- {
		m.Lsh(m, 64)
		m.Or(m, new(big.Int).SetUint64(x.mant[i]))
	}
	return m
}

// oracleRound rounds the exact value v to prec bits in mode and returns it
// with the MPFR ternary of that rounding.
func oracleRound(v *big.Float, prec uint, mode big.RoundingMode) (*big.Float, int) {
	z := new(big.Float).SetPrec(prec).SetMode(mode).Set(v)
	switch z.Acc() {
	case big.Below:
		return z, -1
	case big.Above:
		return z, 1
	}
	return z, 0
}

// stickyValue returns ±(q + ε)·2^e as an exact big.Float that rounds like
// the real value when q has at least prec+1 bits: with rem nonzero it is
// (2q+1)·2^(e-1), which shares q's guard bit and has a set sticky bit.
func stickyValue(neg bool, q *big.Int, remNonzero bool, e int64) *big.Float {
	if remNonzero {
		q = new(big.Int).Lsh(q, 1)
		q.SetBit(q, 0, 1)
		e--
	}
	f := new(big.Float).SetInt(q)
	f.SetMantExp(f, int(e))
	if neg {
		f.Neg(f)
	}
	return f
}

// exactSum returns ±a ± b exactly, its zero signed as mode requires.
func exactSum(a, b *big.Float, mode big.RoundingMode) *big.Float {
	ea, eb := int64(a.MantExp(nil)), int64(b.MantExp(nil))
	lo := min(ea-int64(a.MinPrec()), eb-int64(b.MinPrec()))
	need := max(ea, eb) - lo + 2
	v := new(big.Float).SetPrec(uint(need)).SetMode(mode).Add(a, b)
	if v.Acc() != big.Exact {
		panic("exactSum: reference sum is inexact")
	}
	return v
}

// refOp computes the exact result of op on xs and rounds it to prec bits.
func refOp(op string, xs []*Float, prec uint, mode big.RoundingMode) (*big.Float, int) {
	switch op {
	case "Add":
		return oracleRound(exactSum(bigFromFloat(xs[0]), bigFromFloat(xs[1]), mode), prec, mode)
	case "Sub":
		nb := bigFromFloat(xs[1])
		return oracleRound(exactSum(bigFromFloat(xs[0]), nb.Neg(nb), mode), prec, mode)
	case "Mul", "Sqr":
		y := xs[len(xs)-1]
		p := new(big.Float).SetPrec(uint(xs[0].prec+y.prec)).Mul(bigFromFloat(xs[0]), bigFromFloat(y))
		return oracleRound(p, prec, mode)
	case "FMA":
		p := new(big.Float).SetPrec(uint(xs[0].prec+xs[1].prec)).Mul(bigFromFloat(xs[0]), bigFromFloat(xs[1]))
		return oracleRound(exactSum(p, bigFromFloat(xs[2]), mode), prec, mode)
	case "Div":
		x, y := xs[0], xs[1]
		mx, my := mantBig(x), mantBig(y)
		k := max(0, int64(prec)+3+int64(my.BitLen())-int64(mx.BitLen()))
		q, rem := new(big.Int).QuoRem(new(big.Int).Lsh(mx, uint(k)), my, new(big.Int))
		e := x.unitExp() - k - y.unitExp()
		return oracleRound(stickyValue(x.neg != y.neg, q, rem.Sign() != 0, e), prec, mode)
	case "Sqrt":
		x := xs[0]
		mx := mantBig(x)
		k := max(0, 2*(int64(prec)+3)-int64(mx.BitLen()))
		if (x.unitExp()-k)%2 != 0 {
			k++
		}
		a := new(big.Int).Lsh(mx, uint(k))
		s := new(big.Int).Sqrt(a)
		rem := a.Sub(a, new(big.Int).Mul(s, s))
		return oracleRound(stickyValue(false, s, rem.Sign() != 0, (x.unitExp()-k)/2), prec, mode)
	}
	panic("refOp: unknown op " + op)
}

// applyOp runs op into z and returns the ternary.
func applyOp(op string, z *Float, xs []*Float, rnd RoundingMode) int {
	switch op {
	case "Add":
		return z.Add(xs[0], xs[1], rnd)
	case "Sub":
		return z.Sub(xs[0], xs[1], rnd)
	case "Mul":
		return z.Mul(xs[0], xs[1], rnd)
	case "Sqr":
		return z.Sqr(xs[0], rnd)
	case "Div":
		return z.Div(xs[0], xs[1], rnd)
	case "Sqrt":
		return z.Sqrt(xs[0], rnd)
	case "FMA":
		return z.FMA(xs[0], xs[1], xs[2], rnd)
	}
	panic("applyOp: unknown op " + op)
}

// checkCanonical reports a finite z whose mantissa is not exactly prec bits
// with its top bit set.
func checkCanonical(z *Float) error {
	if z.form != finite {
		return nil
	}
	p := int(z.effPrec())
	if len(z.mant) != (p+63)/64 || z.mant.BitLen() != p {
		return fmt.Errorf("mantissa of %d words, %d bits at precision %d", len(z.mant), z.mant.BitLen(), p)
	}
	return nil
}

// oracleCase is one operand tuple for an op.
type oracleCase struct {
	what string
	xs   []*Float
}

// oracleCases draws the operand tuples for op at result precision p.
func oracleCases(r *rand.Rand, op string, p uint) []oracleCase {
	var cs []oracleCase
	add := func(what string, xs ...*Float) { cs = append(cs, oracleCase{what, xs}) }
	// Operand precision: usually p, sometimes another size from the list.
	oprec := func() uint {
		if r.Intn(3) == 0 {
			return oraclePrecs[r.Intn(len(oraclePrecs))]
		}
		return p
	}
	randF := func(kind mantKind, exp int64) *Float {
		return oracleFloat(r, oprec(), kind, r.Intn(2) == 0, exp)
	}
	near := func() int64 { return int64(r.Intn(9) - 4) }
	for i := 0; i < 24; i++ {
		k := mantKind(i % int(nMantKinds))
		add("random", randF(k, near()), randF(mantKind(r.Intn(int(nMantKinds))), near()), randF(k, near()))
	}
	// Small integers held at full precision (Div's trailing-zero-word path)
	// and exact results.
	for _, v := range [][3]int64{{6, 3, 1}, {1, 3, 7}, {10, 4, -2}, {-7, 2, 5}, {1000, 10, 0}, {9, 1, -9}, {2, 7, 3}} {
		add("small ints", smallInt(p, v[0]), smallInt(p, v[1]), smallInt(p, v[2]))
		add("small int divisor", randF(mantRandom, near()), smallInt(oprec(), v[1]), smallInt(p, v[2]))
	}
	for i := 0; i < 4; i++ {
		add("short mantissas", randF(mantShort, near()), randF(mantShort, near()), randF(mantShort, near()))
	}
	switch op {
	case "Add", "Sub", "FMA":
		for i := 0; i < 6; i++ {
			// Equal exponents and nearly equal mantissas, opposite effective
			// signs: massive cancellation, down to an exact zero.
			x := oracleFloat(r, p, mantRandom, r.Intn(2) == 0, near())
			y := New(p)
			y.Copy(x)
			if i > 0 {
				top := (int(p) - 1) / 64
				y.mant[0] ^= r.Uint64() >> uint(r.Intn(64))
				if rem := p % 64; rem != 0 {
					y.mant[top] &= 1<<rem - 1
				}
				y.mant[top] |= 1 << ((p - 1) % 64)
			}
			if op == "Add" {
				y.neg = !x.neg
			}
			w := New(p)
			w.Copy(x)
			w.neg = !w.neg
			if op == "FMA" {
				one := smallInt(p, 1)
				add("cancellation", x, one, w)
				add("near cancellation", x, one, y)
				y.neg = !x.neg
				add("near cancellation", y, one, w)
				continue
			}
			add("cancellation", x, y, nil)
		}
		for i := 0; i < 6; i++ {
			// All-ones mantissas plus something small of the same sign:
			// the sum carries out of the top word.
			x := oracleFloat(r, p, mantOnes, false, near())
			small := oracleFloat(r, oprec(), mantRandom, op == "Sub", x.exp-int64(p)+int64(r.Intn(3)))
			if op == "FMA" {
				add("carry out", x, smallInt(p, 1), small)
				continue
			}
			add("carry out", x, small, nil)
		}
		for _, d := range []int64{1, 2, 3, 63, 64, 65} {
			// Far apart: the smaller operand sits just around the edge of
			// the larger one's guard and sticky region, either sign.
			x := randF(mantKind(r.Intn(int(nMantKinds))), near())
			y := randF(mantRandom, x.exp-int64(max(p, uint(x.prec)))-d)
			if op == "FMA" {
				add("far apart", x, smallInt(p, 1), y)
				add("far apart", y, smallInt(p, 1), x)
				continue
			}
			add("far apart", x, y, nil)
			add("far apart", y, x, nil)
		}
	case "Mul", "Sqr", "Div":
		for i := 0; i < 4; i++ {
			add("all ones", randF(mantOnes, near()), randF(mantOnes, near()), nil)
		}
	case "Sqrt":
		for i := 0; i < 6; i++ {
			// Perfect squares, exact at precision p.
			h := max(1, p/2)
			s := oracleFloat(r, h, mantKind(r.Intn(int(nMantKinds))), false, near())
			sq := New(2 * h)
			sq.Mul(s, s, RoundNearestEven)
			add("perfect square", sq, nil, nil)
		}
	}
	return cs
}

// opArity is the number of operands each op reads.
var opArity = map[string]int{"Add": 2, "Sub": 2, "Mul": 2, "Sqr": 1, "Div": 2, "Sqrt": 1, "FMA": 3}

// TestBasicOpsCorrectlyRoundedProperty checks Add, Sub, Mul, Sqr, Div,
// Sqrt and FMA, in all five rounding modes and at precisions on both sides
// of every limb boundary up to 1024 bits, against an exact math/big
// reference: big.Float at exact precision for the sums and products, the
// big.Int quotient and square root of the scaled mantissas plus the
// remainder's sign for Div and Sqrt. Both the value and the ternary must
// match, the mantissa must stay exactly prec bits, and an op whose
// destination is its first operand must give the same result.
// TestGoldenDigests pins only 200 bits; this pins the other sizes the
// transcendentals compute at.
func TestBasicOpsCorrectlyRoundedProperty(t *testing.T) {
	ops := []string{"Add", "Sub", "Mul", "Sqr", "Div", "Sqrt", "FMA"}
	r := rand.New(rand.NewSource(91))
	for _, p := range oraclePrecs {
		for _, op := range ops {
			for _, c := range oracleCases(r, op, p) {
				xs := c.xs[:opArity[op]]
				if op == "Sqrt" {
					xs = []*Float{c.xs[0]}
					if xs[0].neg {
						a := New(uint(xs[0].prec))
						a.Abs(xs[0], RoundNearestEven)
						xs[0] = a
					}
				}
				for _, m := range oracleModes {
					want, wantT := refOp(op, xs, p, m.big)
					z := New(p)
					gotT := applyOp(op, z, xs, m.rnd)
					check := func(how string, z *Float, gotT int) {
						t.Helper()
						desc := func() string {
							s := fmt.Sprintf("%s at %d bits, %v, %s%s:", op, p, m.rnd, c.what, how)
							for _, x := range xs {
								s += fmt.Sprintf(" [%d bits] %s", x.prec, bigFromFloat(x).Text('p', 0))
							}
							return s
						}
						if err := checkCanonical(z); err != nil {
							t.Fatalf("%s %v", desc(), err)
						}
						got := bigFromFloat(z)
						if got.Cmp(want) != 0 || got.Signbit() != want.Signbit() || gotT != wantT {
							t.Fatalf("%s got %s (ternary %d), want %s (ternary %d)",
								desc(), got.Text('p', 0), gotT, want.Text('p', 0), wantT)
						}
					}
					check("", z, gotT)
					if xs[0].prec == uint32(p) {
						// In place: the destination is the first operand.
						a := New(p)
						a.Copy(xs[0])
						in := append([]*Float{a}, xs[1:]...)
						aT := applyOp(op, a, in, m.rnd)
						check(" in place", a, aT)
					}
				}
			}
		}
	}
}
