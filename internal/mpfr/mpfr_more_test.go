package mpfr

import (
	"math"
	"strings"
	"testing"
)

func mk(t *testing.T, s string, prec uint) *Float {
	t.Helper()
	x := New(prec)
	if _, _, err := x.SetString(s, RoundNearestEven); err != nil {
		t.Fatalf("SetString(%q): %v", s, err)
	}
	return x
}

func TestAddSubSpecialMatrix(t *testing.T) {
	inf, ninf, nan, pz, nz, one := New(53), New(53), New(53), New(53), New(53), New(53)
	inf.SetInf(1)
	ninf.SetInf(-1)
	nan.SetNaN()
	pz.SetZero(1)
	nz.SetZero(-1)
	one.SetUint64(1, RoundNearestEven)
	z := New(53)

	// Inf + Inf (same sign) = Inf.
	z.Add(inf, inf, RoundNearestEven)
	if !z.IsInf() || z.Signbit() {
		t.Error("Inf+Inf")
	}
	// -Inf - Inf = -Inf (Sub with opposite signs is fine).
	z.Sub(ninf, inf, RoundNearestEven)
	if !z.IsInf() || !z.Signbit() {
		t.Error("-Inf - Inf")
	}
	// Inf - Inf = NaN via Sub.
	z.Sub(inf, inf, RoundNearestEven)
	if !z.IsNaN() {
		t.Error("Inf - Inf (Sub)")
	}
	// NaN anywhere.
	z.Add(nan, one, RoundNearestEven)
	if !z.IsNaN() {
		t.Error("NaN + 1")
	}
	// Zeros: (+0)+(+0)=+0; (-0)+(-0)=-0; (+0)+(-0)=+0 RNE, -0 RTN.
	z.Add(pz, pz, RoundNearestEven)
	if !z.IsZero() || z.Signbit() {
		t.Error("+0 + +0")
	}
	z.Add(nz, nz, RoundNearestEven)
	if !z.IsZero() || !z.Signbit() {
		t.Error("-0 + -0")
	}
	z.Add(pz, nz, RoundNearestEven)
	if !z.IsZero() || z.Signbit() {
		t.Error("+0 + -0 RNE")
	}
	z.Add(pz, nz, RoundTowardNegative)
	if !z.IsZero() || !z.Signbit() {
		t.Error("+0 + -0 RTN")
	}
	// zero + x = x; x + zero = x.
	z.Add(pz, one, RoundNearestEven)
	if z.Cmp(one) != 0 {
		t.Error("0 + 1")
	}
	z.Add(one, nz, RoundNearestEven)
	if z.Cmp(one) != 0 {
		t.Error("1 + -0")
	}
	// Sub with zero second operand and negation path.
	z.Sub(pz, one, RoundNearestEven)
	if z.Sign() != -1 {
		t.Error("0 - 1")
	}
}

func TestCmpAbs(t *testing.T) {
	a, b := mk(t, "-5", 53), mk(t, "3", 53)
	if a.CmpAbs(b) != 1 {
		t.Error("|-5| > |3|")
	}
	if b.CmpAbs(a) != -1 {
		t.Error("|3| < |-5|")
	}
	c := mk(t, "-3", 53)
	if b.CmpAbs(c) != 0 {
		t.Error("|3| == |-3|")
	}
	inf, nan, z := New(53), New(53), New(53)
	inf.SetInf(-1)
	nan.SetNaN()
	z.SetZero(1)
	if inf.CmpAbs(b) != 1 || b.CmpAbs(inf) != -1 {
		t.Error("Inf magnitude")
	}
	if inf.CmpAbs(inf) != 0 {
		t.Error("Inf vs Inf")
	}
	if z.CmpAbs(b) != -1 || b.CmpAbs(z) != 1 || z.CmpAbs(z) != 0 {
		t.Error("zero magnitude")
	}
	if nan.CmpAbs(b) != 0 {
		t.Error("NaN unordered → 0")
	}
	// Same exponent, different mantissas.
	d, e := mk(t, "1.5", 53), mk(t, "1.25", 53)
	if d.CmpAbs(e) != 1 {
		t.Error("1.5 vs 1.25")
	}
}

func TestCopyAndAccessors(t *testing.T) {
	x := mk(t, "2.5", 100)
	y := New(8)
	y.Copy(x)
	if y.Prec() != 100 || y.Cmp(x) != 0 {
		t.Error("Copy should adopt precision and value")
	}
	y.Copy(y) // self-copy no-op
	if y.Cmp(x) != 0 {
		t.Error("self copy")
	}
	if x.BinExp() != 2 { // 2.5 ∈ [2,4)
		t.Errorf("BinExp(2.5) = %d", x.BinExp())
	}
	z := New(53)
	z.SetZero(1)
	if z.BinExp() != 0 {
		t.Error("BinExp(0) = 0")
	}
	if !z.IsFinite() || !x.IsFinite() {
		t.Error("finite checks")
	}
	inf := New(53)
	inf.SetInf(1)
	if inf.IsFinite() {
		t.Error("Inf is not finite")
	}
	m, e, neg := x.MantExp()
	if m.IsZero() || e != 2 || neg {
		t.Error("MantExp")
	}
	if x.String() == "" {
		t.Error("String")
	}
}

func TestFMASpecials(t *testing.T) {
	inf, one, zero, nan := New(53), New(53), New(53), New(53)
	inf.SetInf(1)
	one.SetUint64(1, RoundNearestEven)
	zero.SetZero(1)
	nan.SetNaN()
	z := New(53)

	z.FMA(inf, one, one, RoundNearestEven)
	if !z.IsInf() {
		t.Error("fma(Inf,1,1)")
	}
	z.FMA(zero, inf, one, RoundNearestEven)
	if !z.IsNaN() {
		t.Error("fma(0,Inf,1) = NaN")
	}
	z.FMA(nan, one, one, RoundNearestEven)
	if !z.IsNaN() {
		t.Error("fma(NaN,..)")
	}
	z.FMA(one, one, zero, RoundNearestEven)
	if z.Cmp(one) != 0 {
		t.Error("fma(1,1,0) = 1")
	}
	// w zero path with nonzero product.
	two := mk(t, "2", 53)
	z.FMA(two, two, zero, RoundNearestEven)
	if got := z.Float64(RoundNearestEven); got != 4 {
		t.Errorf("fma(2,2,0) = %v", got)
	}
}

func TestDivSpecialMatrix(t *testing.T) {
	inf, one, zero, nan := New(53), New(53), New(53), New(53)
	inf.SetInf(1)
	one.SetUint64(1, RoundNearestEven)
	zero.SetZero(1)
	nan.SetNaN()
	z := New(53)

	z.Div(nan, one, RoundNearestEven)
	if !z.IsNaN() {
		t.Error("NaN/1")
	}
	z.Div(inf, one, RoundNearestEven)
	if !z.IsInf() {
		t.Error("Inf/1")
	}
	z.Div(one, inf, RoundNearestEven)
	if !z.IsZero() {
		t.Error("1/Inf")
	}
	z.Div(zero, one, RoundNearestEven)
	if !z.IsZero() {
		t.Error("0/1")
	}
	negOne := mk(t, "-1", 53)
	z.Div(negOne, zero, RoundNearestEven)
	if !z.IsInf() || !z.Signbit() {
		t.Error("-1/0 = -Inf")
	}
}

func TestExpEdges(t *testing.T) {
	z := New(64)
	nan, inf, zero := New(53), New(53), New(53)
	nan.SetNaN()
	inf.SetInf(1)
	zero.SetZero(-1)
	z.Exp(nan, RoundNearestEven)
	if !z.IsNaN() {
		t.Error("exp(NaN)")
	}
	z.Exp(inf, RoundNearestEven)
	if !z.IsInf() {
		t.Error("exp(Inf)")
	}
	ninf := New(53)
	ninf.SetInf(-1)
	z.Exp(ninf, RoundNearestEven)
	if !z.IsZero() {
		t.Error("exp(-Inf)")
	}
	z.Exp(zero, RoundNearestEven)
	if got := z.Float64(RoundNearestEven); got != 1 {
		t.Error("exp(-0) = 1")
	}
	// Huge exponent guard.
	huge := mk(t, "1e30", 64)
	z.Exp(huge, RoundNearestEven)
	if !z.IsInf() {
		t.Error("exp(1e30) → Inf")
	}
	nhuge := mk(t, "-1e30", 64)
	z.Exp(nhuge, RoundNearestEven)
	if !z.IsZero() {
		t.Error("exp(-1e30) → 0")
	}
}

func TestAsinAcosEdges(t *testing.T) {
	z := New(64)
	one := mk(t, "1", 53)
	negOne := mk(t, "-1", 53)
	two := mk(t, "2", 53)
	zero := New(53)
	zero.SetZero(1)

	z.Asin(one, RoundNearestEven)
	if got := z.Float64(RoundNearestEven); math.Abs(got-math.Pi/2) > 1e-15 {
		t.Errorf("asin(1) = %v", got)
	}
	z.Asin(negOne, RoundNearestEven)
	if got := z.Float64(RoundNearestEven); math.Abs(got+math.Pi/2) > 1e-15 {
		t.Errorf("asin(-1) = %v", got)
	}
	z.Asin(two, RoundNearestEven)
	if !z.IsNaN() {
		t.Error("asin(2) NaN")
	}
	z.Asin(zero, RoundNearestEven)
	if !z.IsZero() {
		t.Error("asin(0) = 0")
	}
	z.Acos(negOne, RoundNearestEven)
	if got := z.Float64(RoundNearestEven); math.Abs(got-math.Pi) > 1e-15 {
		t.Errorf("acos(-1) = %v", got)
	}
	z.Acos(two, RoundNearestEven)
	if !z.IsNaN() {
		t.Error("acos(2) NaN")
	}
	inf := New(53)
	inf.SetInf(1)
	z.Asin(inf, RoundNearestEven)
	if !z.IsNaN() {
		t.Error("asin(Inf)")
	}
}

func TestAtan2SpecialMatrix(t *testing.T) {
	z := New(64)
	cases := []struct {
		y, x string
		want float64
	}{
		{"0", "1", 0},
		{"0", "-1", math.Pi},
		{"-0", "-1", -math.Pi},
		{"1", "0", math.Pi / 2},
		{"-1", "0", -math.Pi / 2},
		{"inf", "inf", math.Pi / 4},
		{"inf", "-inf", 3 * math.Pi / 4},
		{"-inf", "inf", -math.Pi / 4},
		{"inf", "1", math.Pi / 2},
		{"1", "inf", 0},
		{"1", "-inf", math.Pi},
		{"nan", "1", math.NaN()},
	}
	for _, c := range cases {
		y, x := mk(t, c.y, 64), mk(t, c.x, 64)
		z.Atan2(y, x, RoundNearestEven)
		got := z.Float64(RoundNearestEven)
		if math.IsNaN(c.want) {
			if !z.IsNaN() {
				t.Errorf("atan2(%s,%s) = %v, want NaN", c.y, c.x, got)
			}
			continue
		}
		if math.Abs(got-c.want) > 1e-15 {
			t.Errorf("atan2(%s,%s) = %v, want %v", c.y, c.x, got, c.want)
		}
	}
}

func TestOverflowFloat64Directed(t *testing.T) {
	big := New(60)
	big.SetFloat64(math.MaxFloat64, RoundNearestEven)
	two := mk(t, "2", 53)
	prod := New(60)
	prod.Mul(big, two, RoundNearestEven)
	neg := New(60)
	neg.Neg(prod, RoundNearestEven)

	if got := prod.Float64(RoundTowardPositive); !math.IsInf(got, 1) {
		t.Error("RTP overflow positive → +Inf")
	}
	if got := neg.Float64(RoundTowardPositive); got != -math.MaxFloat64 {
		t.Error("RTP overflow negative → -MaxFloat")
	}
	if got := neg.Float64(RoundTowardNegative); !math.IsInf(got, -1) {
		t.Error("RTN overflow negative → -Inf")
	}
	if got := neg.Float64(RoundTowardZero); got != -math.MaxFloat64 {
		t.Error("RTZ overflow negative → -MaxFloat")
	}
	if got := neg.Float64(RoundNearestEven); !math.IsInf(got, -1) {
		t.Error("RNE overflow negative → -Inf")
	}
}

func TestPowHugeIntegerExponent(t *testing.T) {
	z := New(64)
	// 1e30 is an integer beyond int64: saturation path, even exponent.
	base := mk(t, "0.5", 64)
	y := mk(t, "1e30", 128)
	z.Pow(base, y, RoundNearestEven)
	if !z.IsZero() {
		t.Errorf("0.5^1e30 = %s, want 0", z)
	}
	// Negative base with huge even integer exponent → positive result.
	nbase := mk(t, "-0.5", 64)
	z.Pow(nbase, y, RoundNearestEven)
	if z.Signbit() {
		t.Error("(-0.5)^(huge even) should be positive")
	}
	// pow(x, ±Inf) family.
	inf := New(53)
	inf.SetInf(1)
	half := mk(t, "0.5", 53)
	z.Pow(half, inf, RoundNearestEven)
	if !z.IsZero() {
		t.Error("0.5^Inf = 0")
	}
	two := mk(t, "2", 53)
	z.Pow(two, inf, RoundNearestEven)
	if !z.IsInf() {
		t.Error("2^Inf = Inf")
	}
	one := mk(t, "1", 53)
	z.Pow(one, inf, RoundNearestEven)
	if got := z.Float64(RoundNearestEven); got != 1 {
		t.Error("1^Inf = 1")
	}
	// pow(±0, y).
	zero := New(53)
	zero.SetZero(1)
	three := mk(t, "3", 53)
	z.Pow(zero, three, RoundNearestEven)
	if !z.IsZero() {
		t.Error("0^3 = 0")
	}
	negTwo := mk(t, "-2", 53)
	z.Pow(zero, negTwo, RoundNearestEven)
	if !z.IsInf() {
		t.Error("0^-2 = Inf")
	}
	// pow(Inf, y).
	z.Pow(inf, three, RoundNearestEven)
	if !z.IsInf() {
		t.Error("Inf^3")
	}
	z.Pow(inf, negTwo, RoundNearestEven)
	if !z.IsZero() {
		t.Error("Inf^-2 = 0")
	}
	// Negative base, non-integer exponent → NaN.
	z.Pow(negTwo, half, RoundNearestEven)
	if !z.IsNaN() {
		t.Error("(-2)^0.5 = NaN")
	}
}

func TestTextEdgeCases(t *testing.T) {
	inf, nan, zero := New(53), New(53), New(53)
	inf.SetInf(-1)
	nan.SetNaN()
	zero.SetZero(-1)
	if inf.Text(5) != "-inf" {
		t.Errorf("Text(-Inf) = %q", inf.Text(5))
	}
	if nan.Text(5) != "nan" {
		t.Errorf("Text(NaN) = %q", nan.Text(5))
	}
	if zero.Text(5) != "-0" {
		t.Errorf("Text(-0) = %q", zero.Text(5))
	}
	// A power of ten boundary: rounding to fewer digits carries over.
	x := mk(t, "9.99", 60)
	got := x.Text(2)
	if !strings.HasPrefix(got, "1.0e+01") && !strings.HasPrefix(got, "1.0e+1") {
		t.Errorf("Text(9.99, 2 digits) = %q", got)
	}
}

func TestRintLargeIntegerAlreadyIntegral(t *testing.T) {
	x := mk(t, "123456789", 60)
	z := New(60)
	z.Floor(x)
	if z.Cmp(x) != 0 {
		t.Error("floor of integer is identity")
	}
	inf := New(53)
	inf.SetInf(1)
	z.Ceil(inf)
	if !z.IsInf() {
		t.Error("ceil(Inf)")
	}
	nan := New(53)
	nan.SetNaN()
	z.Trunc(nan)
	if !z.IsNaN() {
		t.Error("trunc(NaN)")
	}
	zero := New(53)
	zero.SetZero(-1)
	z.Round(zero)
	if !z.IsZero() || !z.Signbit() {
		t.Error("round(-0) = -0")
	}
}

func TestSetPrecOnSpecials(t *testing.T) {
	nan := New(100)
	nan.SetNaN()
	nan.SetPrec(50, RoundNearestEven)
	if !nan.IsNaN() || nan.Prec() != 50 {
		t.Error("SetPrec on NaN")
	}
	inf := New(100)
	inf.SetInf(-1)
	inf.SetPrec(20, RoundNearestEven)
	if !inf.IsInf() || !inf.Signbit() {
		t.Error("SetPrec on Inf")
	}
}

func TestMinMaxPrecClamping(t *testing.T) {
	x := New(0) // below MinPrec
	if x.Prec() < MinPrec {
		t.Error("prec clamp low")
	}
	y := New(1 << 40) // above MaxPrec
	if y.Prec() > MaxPrec {
		t.Error("prec clamp high")
	}
}

func TestLog2ExactPowersAndLog1pInfNan(t *testing.T) {
	z := New(64)
	for e := int64(-10); e <= 10; e++ {
		x := New(64)
		x.SetUint64(1, RoundNearestEven)
		x.Mul2Exp(x, e, RoundNearestEven)
		z.Log2(x, RoundNearestEven)
		if got, _ := z.Int64(RoundNearestEven); got != e {
			t.Errorf("log2(2^%d) = %d", e, got)
		}
	}
	nan := New(53)
	nan.SetNaN()
	z.Log1p(nan, RoundNearestEven)
	if !z.IsNaN() {
		t.Error("log1p(NaN)")
	}
	inf := New(53)
	inf.SetInf(1)
	z.Log1p(inf, RoundNearestEven)
	if !z.IsInf() {
		t.Error("log1p(Inf)")
	}
	zero := New(53)
	zero.SetZero(-1)
	z.Log1p(zero, RoundNearestEven)
	if !z.IsZero() {
		t.Error("log1p(-0)")
	}
	z.Expm1(inf, RoundNearestEven)
	if !z.IsInf() {
		t.Error("expm1(Inf)")
	}
	ninf := New(53)
	ninf.SetInf(-1)
	z.Expm1(ninf, RoundNearestEven)
	if got := z.Float64(RoundNearestEven); got != -1 {
		t.Error("expm1(-Inf) = -1")
	}
	z.Expm1(nan, RoundNearestEven)
	if !z.IsNaN() {
		t.Error("expm1(NaN)")
	}
	z.Expm1(zero, RoundNearestEven)
	if !z.IsZero() {
		t.Error("expm1(-0)")
	}
}

func TestLogOfExactOne(t *testing.T) {
	one := mk(t, "1", 64)
	z := New(64)
	if tern := z.Log(one, RoundNearestEven); !z.IsZero() || tern != 0 {
		t.Error("log(1) = 0 exactly")
	}
}

func TestHypotSpecials(t *testing.T) {
	z := New(64)
	inf, nan := New(53), New(53)
	inf.SetInf(-1)
	nan.SetNaN()
	one := mk(t, "1", 53)
	z.Hypot(inf, one, RoundNearestEven)
	if !z.IsInf() || z.Signbit() {
		t.Error("hypot(-Inf,1) = +Inf")
	}
	z.Hypot(nan, one, RoundNearestEven)
	if !z.IsNaN() {
		t.Error("hypot(NaN,1)")
	}
}

func TestNegOnNaNKeepsNaN(t *testing.T) {
	nan := New(53)
	nan.SetNaN()
	z := New(53)
	z.Neg(nan, RoundNearestEven)
	if !z.IsNaN() {
		t.Error("neg(NaN)")
	}
	z.Abs(nan, RoundNearestEven)
	if !z.IsNaN() {
		t.Error("abs(NaN)")
	}
}

// TestRoundUpCarriesOut rounds all-ones mantissas up: the increment carries
// out of the top bit, within a limb and across a whole limb.
func TestRoundUpCarriesOut(t *testing.T) {
	for _, prec := range []uint{8, 64, 100, 128} {
		// x = 2^(prec+8) − 1 exactly: prec+8 one bits.
		x := New(prec + 8)
		x.SetUint64(1, RoundNearestEven)
		x.Mul2Exp(x, int64(prec+8), RoundNearestEven)
		one := New(8)
		one.SetUint64(1, RoundNearestEven)
		x.Sub(x, one, RoundNearestEven)
		z := New(prec)
		if tern := z.Set(x, RoundNearestEven); tern != 1 {
			t.Errorf("prec %d: ternary %d, want 1", prec, tern)
		}
		m, e, _ := z.MantExp()
		if e != int64(prec)+9 || m.BitLen() != int(prec) || m.TrailingZeros() != int(prec)-1 {
			t.Errorf("prec %d: 2^%d − 1 rounded to mant bits %d, exp %d; want 2^%d", prec, prec+8, m.BitLen(), e, prec+8)
		}
	}
}
