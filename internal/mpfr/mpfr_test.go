package mpfr

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// bigFromFloat converts our Float to a big.Float oracle value.
func bigFromFloat(x *Float) *big.Float {
	switch x.form {
	case nan:
		panic("bigFromFloat: NaN")
	case inf:
		return new(big.Float).SetInf(x.neg)
	case zero:
		z := new(big.Float)
		if x.neg {
			z.Neg(z)
		}
		return z
	}
	m := new(big.Int)
	for i := len(x.mant) - 1; i >= 0; i-- {
		m.Lsh(m, 64)
		m.Or(m, new(big.Int).SetUint64(x.mant[i]))
	}
	f := new(big.Float).SetPrec(uint(x.effPrec()) + 64).SetInt(m)
	f.SetMantExp(f, int(x.unitExp())) // f = m · 2^unitExp
	if x.neg {
		f.Neg(f)
	}
	return f
}

func randFloat64(r *rand.Rand) float64 {
	for {
		v := math.Float64frombits(r.Uint64())
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			return v
		}
	}
}

// roundTripOK checks SetFloat64 → Float64 is the identity at prec >= 53.
func TestFloat64RoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for i := 0; i < 10000; i++ {
		v := randFloat64(r)
		x := New(53)
		x.SetFloat64(v, RoundNearestEven)
		got := x.Float64(RoundNearestEven)
		if math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("round trip failed for %g (%x): got %g (%x)",
				v, math.Float64bits(v), got, math.Float64bits(got))
		}
	}
}

func TestFloat64RoundTripSpecials(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, math.Float64frombits(0x000FFFFFFFFFFFFF), // max subnormal
		math.Float64frombits(0x0010000000000000), // min normal
	}
	for _, v := range specials {
		x := New(200)
		x.SetFloat64(v, RoundNearestEven)
		got := x.Float64(RoundNearestEven)
		if math.Float64bits(got) != math.Float64bits(v) {
			t.Errorf("special %g (%x) round trip: got %x", v, math.Float64bits(v), math.Float64bits(got))
		}
	}
	// NaN maps to NaN.
	x := New(64)
	x.SetFloat64(math.NaN(), RoundNearestEven)
	if !x.IsNaN() || !math.IsNaN(x.Float64(RoundNearestEven)) {
		t.Error("NaN round trip failed")
	}
}

// TestArithVsFloat64 checks that 53-bit RNE arithmetic matches hardware
// float64 arithmetic exactly (both are correctly rounded binary64).
func TestArithVsFloat64(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	x, y, z := New(53), New(53), New(53)
	for i := 0; i < 20000; i++ {
		a, b := randFloat64(r), randFloat64(r)
		// Keep away from over/underflow so float64 ops are exact-rounded
		// in range (Inf/subnormal edges are tested separately).
		if e := math.Abs(math.Log2(math.Abs(a))); e > 500 {
			continue
		}
		if e := math.Abs(math.Log2(math.Abs(b))); e > 500 {
			continue
		}
		x.SetFloat64(a, RoundNearestEven)
		y.SetFloat64(b, RoundNearestEven)

		z.Add(x, y, RoundNearestEven)
		if got, want := z.Float64(RoundNearestEven), a+b; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Add(%g, %g) = %g, want %g", a, b, got, want)
		}
		z.Sub(x, y, RoundNearestEven)
		if got, want := z.Float64(RoundNearestEven), a-b; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Sub(%g, %g) = %g, want %g", a, b, got, want)
		}
		z.Mul(x, y, RoundNearestEven)
		if got, want := z.Float64(RoundNearestEven), a*b; !sameFloat(got, want) {
			t.Fatalf("Mul(%g, %g) = %g, want %g", a, b, got, want)
		}
		z.Div(x, y, RoundNearestEven)
		if got, want := z.Float64(RoundNearestEven), a/b; !sameFloat(got, want) {
			t.Fatalf("Div(%g, %g) = %g, want %g", a, b, got, want)
		}
		z.FMA(x, y, x, RoundNearestEven)
		if got, want := z.Float64(RoundNearestEven), math.FMA(a, b, a); !sameFloat(got, want) {
			t.Fatalf("FMA(%g, %g, %g) = %g, want %g", a, b, a, got, want)
		}
	}
}

// sameFloat compares float64s treating NaN == NaN and distinguishing ±0 only
// when finite results differ. Over/underflowing ops can produce subnormal
// double rounding differences; exclude via the magnitude guard in callers.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func TestSqrtVsFloat64(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	x, z := New(53), New(53)
	for i := 0; i < 10000; i++ {
		a := math.Abs(randFloat64(r))
		x.SetFloat64(a, RoundNearestEven)
		z.Sqrt(x, RoundNearestEven)
		if got, want := z.Float64(RoundNearestEven), math.Sqrt(a); !sameFloat(got, want) {
			t.Fatalf("Sqrt(%g) = %g, want %g", a, got, want)
		}
	}
	// sqrt(-x) is NaN, sqrt(-0) is -0.
	x.SetFloat64(-4, RoundNearestEven)
	z.Sqrt(x, RoundNearestEven)
	if !z.IsNaN() {
		t.Error("Sqrt(-4) should be NaN")
	}
	x.SetFloat64(math.Copysign(0, -1), RoundNearestEven)
	z.Sqrt(x, RoundNearestEven)
	if !z.IsZero() || !z.Signbit() {
		t.Error("Sqrt(-0) should be -0")
	}
}

// TestAddVsBigFloat cross-checks high-precision Add/Sub/Mul against
// math/big.Float, which is correctly rounded for these ops.
func TestAddVsBigFloat(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	const prec = 120
	for i := 0; i < 3000; i++ {
		a, b := randFloat64(r), randFloat64(r)
		if math.Abs(math.Log2(math.Abs(a))) > 900 || math.Abs(math.Log2(math.Abs(b))) > 900 {
			continue
		}
		x, y, z := New(prec), New(prec), New(prec)
		x.SetFloat64(a, RoundNearestEven)
		y.SetFloat64(b, RoundNearestEven)

		bx := new(big.Float).SetPrec(prec).SetFloat64(a)
		by := new(big.Float).SetPrec(prec).SetFloat64(b)

		z.Add(x, y, RoundNearestEven)
		want := new(big.Float).SetPrec(prec).Add(bx, by)
		if got := bigFromFloat(z); got.Cmp(want) != 0 {
			t.Fatalf("Add(%g,%g): got %s want %s", a, b, got.Text('e', 40), want.Text('e', 40))
		}
		z.Mul(x, y, RoundNearestEven)
		want = new(big.Float).SetPrec(prec).Mul(bx, by)
		if got := bigFromFloat(z); got.Cmp(want) != 0 {
			t.Fatalf("Mul(%g,%g) mismatch", a, b)
		}
		z.Sub(x, y, RoundNearestEven)
		want = new(big.Float).SetPrec(prec).Sub(bx, by)
		if z.IsZero() {
			if want.Sign() != 0 {
				t.Fatalf("Sub(%g,%g): got 0 want %s", a, b, want.Text('e', 20))
			}
		} else if got := bigFromFloat(z); got.Cmp(want) != 0 {
			t.Fatalf("Sub(%g,%g) mismatch", a, b)
		}
	}
}

// TestRoundingModesDirected verifies directed rounding on a value that
// needs rounding: 1/3 at precision 8.
func TestRoundingModesDirected(t *testing.T) {
	one, three := New(8), New(8)
	one.SetUint64(1, RoundNearestEven)
	three.SetUint64(3, RoundNearestEven)

	down := New(8)
	tDown := down.Div(one, three, RoundTowardNegative)
	up := New(8)
	tUp := up.Div(one, three, RoundTowardPositive)
	zero := New(8)
	tZero := zero.Div(one, three, RoundTowardZero)

	if tDown != -1 || tUp != 1 || tZero != -1 {
		t.Fatalf("ternaries: down=%d up=%d zero=%d", tDown, tUp, tZero)
	}
	if down.Cmp(up) != -1 {
		t.Fatal("RTN result should be < RTP result")
	}
	if zero.Cmp(down) != 0 {
		t.Fatal("RTZ should equal RTN for positive value")
	}
	// The two roundings should differ by exactly one ulp: up - down = ulp.
	diff := New(60)
	diff.Sub(up, down, RoundNearestEven)
	wantUlp := New(60)
	wantUlp.SetUint64(1, RoundNearestEven)
	wantUlp.exp = down.exp - 8 + 1 // ulp at prec 8
	if diff.Cmp(wantUlp) != 0 {
		t.Fatalf("up-down = %s, want one ulp = %s", diff, wantUlp)
	}
	// Negative operand: RTZ rounds toward zero → equals RTP of -1/3.
	negOne := New(8)
	negOne.SetInt64(-1, RoundNearestEven)
	a := New(8)
	a.Div(negOne, three, RoundTowardZero)
	b := New(8)
	b.Div(negOne, three, RoundTowardPositive)
	if a.Cmp(b) != 0 {
		t.Fatal("RTZ(-1/3) should equal RTP(-1/3)")
	}
}

func TestTiesToEven(t *testing.T) {
	// At precision 4: 1001.1 (=19/2) ties; RNE → 1010 (even), RNA → 1010.
	// 1000.1 (=17/2) ties; RNE → 1000 (round down to even), RNA → 1001.
	x := New(10)
	x.SetString("8.5", RoundNearestEven)
	z := New(4)
	z.Set(x, RoundNearestEven)
	if got := z.Float64(RoundNearestEven); got != 8 {
		t.Errorf("RNE(8.5 @4bits) = %g, want 8", got)
	}
	z.Set(x, RoundNearestAway)
	if got := z.Float64(RoundNearestEven); got != 9 {
		t.Errorf("RNA(8.5 @4bits) = %g, want 9", got)
	}
	x.SetString("9.5", RoundNearestEven)
	z.Set(x, RoundNearestEven)
	if got := z.Float64(RoundNearestEven); got != 10 {
		t.Errorf("RNE(9.5 @4bits) = %g, want 10", got)
	}
}

func TestSpecialArith(t *testing.T) {
	inf, ninf, nan, zero, one := New(53), New(53), New(53), New(53), New(53)
	inf.SetInf(1)
	ninf.SetInf(-1)
	nan.SetNaN()
	zero.SetZero(1)
	one.SetUint64(1, RoundNearestEven)

	z := New(53)
	z.Add(inf, ninf, RoundNearestEven)
	if !z.IsNaN() {
		t.Error("Inf + -Inf should be NaN")
	}
	z.Mul(zero, inf, RoundNearestEven)
	if !z.IsNaN() {
		t.Error("0 * Inf should be NaN")
	}
	z.Div(zero, zero, RoundNearestEven)
	if !z.IsNaN() {
		t.Error("0/0 should be NaN")
	}
	z.Div(one, zero, RoundNearestEven)
	if !z.IsInf() || z.Signbit() {
		t.Error("1/0 should be +Inf")
	}
	z.Div(inf, inf, RoundNearestEven)
	if !z.IsNaN() {
		t.Error("Inf/Inf should be NaN")
	}
	z.Add(inf, one, RoundNearestEven)
	if !z.IsInf() || z.Signbit() {
		t.Error("Inf + 1 should be +Inf")
	}
	z.Sub(one, one, RoundNearestEven)
	if !z.IsZero() || z.Signbit() {
		t.Error("1 - 1 should be +0")
	}
	z.Sub(one, one, RoundTowardNegative)
	if !z.IsZero() || !z.Signbit() {
		t.Error("1 - 1 in RTN should be -0")
	}
}

func TestCmp(t *testing.T) {
	mk := func(v float64) *Float {
		x := New(53)
		x.SetFloat64(v, RoundNearestEven)
		return x
	}
	cases := []struct {
		a, b float64
		want int
	}{
		{1, 2, -1}, {2, 1, 1}, {1, 1, 0},
		{-1, 1, -1}, {-2, -1, -1}, {0, 0, 0},
		{0.5, 0.25, 1}, {1e300, 1e-300, 1}, {-1e300, 1e-300, -1},
	}
	for _, c := range cases {
		if got := mk(c.a).Cmp(mk(c.b)); got != c.want {
			t.Errorf("Cmp(%g,%g) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	negZero, posZero := mk(math.Copysign(0, -1)), mk(0)
	if negZero.Cmp(posZero) != 0 {
		t.Error("-0 should compare equal to +0")
	}
	inf := New(53)
	inf.SetInf(1)
	if inf.Cmp(mk(1e308)) != 1 {
		t.Error("Inf should exceed any finite")
	}
}

func TestInt64Conversion(t *testing.T) {
	cases := []struct {
		s    string
		rnd  RoundingMode
		want int64
		ok   bool
	}{
		{"0", RoundTowardZero, 0, true},
		{"1.7", RoundTowardZero, 1, true},
		{"1.7", RoundNearestEven, 2, true},
		{"2.5", RoundNearestEven, 2, true},
		{"3.5", RoundNearestEven, 4, true},
		{"2.5", RoundNearestAway, 3, true},
		{"-1.7", RoundTowardZero, -1, true},
		{"-1.5", RoundNearestEven, -2, true},
		{"-0.5", RoundNearestEven, 0, true},
		{"-0.75", RoundNearestEven, -1, true},
		{"0.5", RoundTowardPositive, 1, true},
		{"-0.5", RoundTowardNegative, -1, true},
		{"9223372036854775807", RoundTowardZero, math.MaxInt64, true},
		{"-9223372036854775808", RoundTowardZero, math.MinInt64, true},
		{"9223372036854775808", RoundTowardZero, math.MinInt64, false},
		{"1e30", RoundTowardZero, math.MinInt64, false},
	}
	for _, c := range cases {
		x := New(128)
		if _, _, err := x.SetString(c.s, RoundNearestEven); err != nil {
			t.Fatalf("SetString(%q): %v", c.s, err)
		}
		got, ok := x.Int64(c.rnd)
		if got != c.want || ok != c.ok {
			t.Errorf("Int64(%s, %v) = %d,%v want %d,%v", c.s, c.rnd, got, ok, c.want, c.ok)
		}
	}
	inf := New(53)
	inf.SetInf(1)
	if _, ok := inf.Int64(RoundTowardZero); ok {
		t.Error("Int64(Inf) should not be ok")
	}
}

func TestRintModes(t *testing.T) {
	vals := []float64{-2.5, -1.5, -1.2, -0.8, -0.5, -0.2, 0.2, 0.5, 0.8, 1.2, 1.5, 2.5, 7.5}
	x, z := New(53), New(53)
	for _, v := range vals {
		x.SetFloat64(v, RoundNearestEven)
		z.Floor(x)
		if got := z.Float64(RoundNearestEven); got != math.Floor(v) {
			t.Errorf("Floor(%g) = %g, want %g", v, got, math.Floor(v))
		}
		z.Ceil(x)
		if got := z.Float64(RoundNearestEven); got != math.Ceil(v) {
			t.Errorf("Ceil(%g) = %g, want %g", v, got, math.Ceil(v))
		}
		z.Trunc(x)
		if got := z.Float64(RoundNearestEven); got != math.Trunc(v) {
			t.Errorf("Trunc(%g) = %g, want %g", v, got, math.Trunc(v))
		}
		z.RoundEven(x)
		if got := z.Float64(RoundNearestEven); got != math.RoundToEven(v) {
			t.Errorf("RoundEven(%g) = %g, want %g", v, got, math.RoundToEven(v))
		}
		z.Round(x)
		if got := z.Float64(RoundNearestEven); got != math.Round(v) {
			t.Errorf("Round(%g) = %g, want %g", v, got, math.Round(v))
		}
	}
}

func TestSetStringAndText(t *testing.T) {
	cases := []string{"1", "-1", "0.5", "3.14159", "-2.718e10", "1e-20",
		"12345678901234567890", "0.000001", "6.02214076e23"}
	for _, s := range cases {
		x := New(200)
		if _, _, err := x.SetString(s, RoundNearestEven); err != nil {
			t.Fatalf("SetString(%q): %v", s, err)
		}
		// Round-trip through Text at high digits and compare as big.Float.
		y := New(200)
		if _, _, err := y.SetString(x.Text(40), RoundNearestEven); err != nil {
			t.Fatalf("re-parse %q: %v", x.Text(40), err)
		}
		// Allow 1 ulp slack from decimal round trip.
		d := New(200)
		d.Sub(x, y, RoundNearestEven)
		if !d.IsZero() && d.exp > x.exp-190 {
			t.Errorf("Text round trip of %q moved value: %s vs %s", s, x, y)
		}
	}
	bad := []string{"", "abc", "1..2", "1e", "--3", "0x12"}
	for _, s := range bad {
		x := New(64)
		if _, _, err := x.SetString(s, RoundNearestEven); err == nil {
			t.Errorf("SetString(%q) should fail", s)
		}
	}
	for _, s := range []string{"inf", "-inf", "nan", "Inf", "NaN"} {
		x := New(64)
		if _, _, err := x.SetString(s, RoundNearestEven); err != nil {
			t.Errorf("SetString(%q) should parse", s)
		}
	}
}

func TestTextKnownValues(t *testing.T) {
	x := New(200)
	x.SetString("0.1", RoundNearestEven)
	if got := x.Text(10); got != "1.000000000e-01" {
		t.Errorf("Text(0.1) = %q", got)
	}
	x.SetUint64(1024, RoundNearestEven)
	if got := x.Text(4); got != "1.024e+03" {
		t.Errorf("Text(1024) = %q", got)
	}
	x.SetInt64(-3, RoundNearestEven)
	if got := x.Text(3); got != "-3.00e+00" {
		t.Errorf("Text(-3) = %q", got)
	}
}

func TestPrecisionChange(t *testing.T) {
	x := New(200)
	x.SetString("3.14159265358979323846264338327950288", RoundNearestEven)
	lo := New(24)
	lo.Set(x, RoundNearestEven)
	// Downconversion keeps 24 bits: relative error < 2^-24.
	got := lo.Float64(RoundNearestEven)
	if math.Abs(got-math.Pi)/math.Pi > math.Exp2(-24) {
		t.Errorf("24-bit pi = %g too far from pi", got)
	}
	// SetPrec in place.
	x.SetPrec(24, RoundNearestEven)
	if x.Prec() != 24 {
		t.Errorf("SetPrec: prec = %d", x.Prec())
	}
	if x.Cmp(lo) != 0 {
		t.Error("SetPrec disagrees with Set into lower precision")
	}
}

func TestTernaryValues(t *testing.T) {
	// Exact operations return 0.
	x, y, z := New(53), New(53), New(53)
	x.SetUint64(3, RoundNearestEven)
	y.SetUint64(4, RoundNearestEven)
	if tern := z.Add(x, y, RoundNearestEven); tern != 0 {
		t.Errorf("3+4 ternary = %d, want 0", tern)
	}
	if tern := z.Mul(x, y, RoundNearestEven); tern != 0 {
		t.Errorf("3*4 ternary = %d, want 0", tern)
	}
	// 1/3 rounds; ternary sign tells direction.
	one, three := New(53), New(53)
	one.SetUint64(1, RoundNearestEven)
	three.SetUint64(3, RoundNearestEven)
	tern := z.Div(one, three, RoundNearestEven)
	if tern == 0 {
		t.Error("1/3 should be inexact")
	}
	f := z.Float64(RoundNearestEven)
	if (tern > 0) != (f > 1.0/3.0) && (tern < 0) != (f < 1.0/3.0) {
		t.Error("ternary direction inconsistent with value")
	}
}

func TestPiLn2(t *testing.T) {
	pi := New(256)
	pi.Pi(RoundNearestEven)
	want := "3.14159265358979323846264338327950288419716939937510582097494459230781640628620899"
	w := New(280)
	w.SetString(want, RoundNearestEven)
	d := New(280)
	d.Sub(pi, w, RoundNearestEven)
	if !d.IsZero() && d.exp > pi.exp-250 {
		t.Errorf("Pi(256 bits) = %s off by %s", pi, d)
	}

	ln2 := New(256)
	ln2.Ln2(RoundNearestEven)
	wantLn2 := "0.693147180559945309417232121458176568075500134360255254120680009493393621969694716"
	w2 := New(280)
	w2.SetString(wantLn2, RoundNearestEven)
	d.Sub(ln2, w2, RoundNearestEven)
	if !d.IsZero() && d.exp > ln2.exp-250 {
		t.Errorf("Ln2(256 bits) = %s off by %s", ln2, d)
	}
	// Float64 versions must match math constants exactly.
	if got := pi.Float64(RoundNearestEven); got != math.Pi {
		t.Errorf("pi as float64 = %g", got)
	}
	if got := ln2.Float64(RoundNearestEven); got != math.Ln2 {
		t.Errorf("ln2 as float64 = %g", got)
	}
}

// checkClose verifies |got - want| <= tol_ulps at 53 bits against a float64
// oracle (the math package is faithfully rounded itself, so allow 2 ulps).
func checkClose(t *testing.T, name string, got *Float, want float64) {
	t.Helper()
	g := got.Float64(RoundNearestEven)
	if math.IsNaN(want) {
		if !math.IsNaN(g) {
			t.Errorf("%s = %g, want NaN", name, g)
		}
		return
	}
	if math.IsInf(want, 0) {
		if g != want {
			t.Errorf("%s = %g, want %g", name, g, want)
		}
		return
	}
	if want == 0 {
		if math.Abs(g) > 1e-300 {
			t.Errorf("%s = %g, want ~0", name, g)
		}
		return
	}
	// The math package is only faithfully rounded, and some functions
	// (notably Acos near ±1, computed as π/2−Asin) carry a few extra ulps
	// of error themselves, so the tolerance must cover the oracle too.
	rel := math.Abs(g-want) / math.Abs(want)
	if rel > 5e-15 {
		t.Errorf("%s = %.17g, want %.17g (rel err %g)", name, g, want, rel)
	}
}

func TestTranscendentalVsMath(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	z := New(64)
	x := New(64)
	for i := 0; i < 400; i++ {
		v := (r.Float64() - 0.5) * 40
		x.SetFloat64(v, RoundNearestEven)

		z.Exp(x, RoundNearestEven)
		checkClose(t, "Exp", z, math.Exp(v))
		z.Sin(x, RoundNearestEven)
		checkClose(t, "Sin", z, math.Sin(v))
		z.Cos(x, RoundNearestEven)
		checkClose(t, "Cos", z, math.Cos(v))
		z.Atan(x, RoundNearestEven)
		checkClose(t, "Atan", z, math.Atan(v))

		av := math.Abs(v) + 1e-9
		x.SetFloat64(av, RoundNearestEven)
		z.Log(x, RoundNearestEven)
		checkClose(t, "Log", z, math.Log(av))
		z.Log2(x, RoundNearestEven)
		checkClose(t, "Log2", z, math.Log2(av))
		z.Log10(x, RoundNearestEven)
		checkClose(t, "Log10", z, math.Log10(av))

		u := r.Float64()*2 - 1
		x.SetFloat64(u, RoundNearestEven)
		z.Asin(x, RoundNearestEven)
		checkClose(t, "Asin", z, math.Asin(u))
		z.Acos(x, RoundNearestEven)
		checkClose(t, "Acos", z, math.Acos(u))
		z.Tan(x, RoundNearestEven)
		checkClose(t, "Tan", z, math.Tan(u))
	}
}

func TestPowVsMath(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	x, y, z := New(64), New(64), New(64)
	for i := 0; i < 300; i++ {
		a := r.Float64()*20 + 1e-6
		b := (r.Float64() - 0.5) * 20
		x.SetFloat64(a, RoundNearestEven)
		y.SetFloat64(b, RoundNearestEven)
		z.Pow(x, y, RoundNearestEven)
		checkClose(t, "Pow", z, math.Pow(a, b))
	}
	// Special cases.
	cases := []struct{ a, b, want float64 }{
		{2, 10, 1024}, {-2, 3, -8}, {-2, 2, 4}, {0, 0, 1},
		{0, 3, 0}, {0, -2, math.Inf(1)}, {-3, 0.5, math.NaN()},
		{1, math.Inf(1), 1}, {math.Inf(1), 2, math.Inf(1)},
		{math.Inf(1), -2, 0}, {2, math.Inf(1), math.Inf(1)},
		{0.5, math.Inf(1), 0}, {2, math.Inf(-1), 0},
	}
	for _, c := range cases {
		x.SetFloat64(c.a, RoundNearestEven)
		y.SetFloat64(c.b, RoundNearestEven)
		z.Pow(x, y, RoundNearestEven)
		checkClose(t, "Pow special", z, c.want)
	}
}

func TestAtan2Quadrants(t *testing.T) {
	pts := [][2]float64{{1, 1}, {-1, 1}, {1, -1}, {-1, -1}, {0, 1}, {0, -1},
		{1, 0}, {-1, 0}, {3, -4}, {-0.5, 0.7}}
	y, x, z := New(64), New(64), New(64)
	for _, p := range pts {
		y.SetFloat64(p[0], RoundNearestEven)
		x.SetFloat64(p[1], RoundNearestEven)
		z.Atan2(y, x, RoundNearestEven)
		checkClose(t, "Atan2", z, math.Atan2(p[0], p[1]))
	}
}

// TestHighPrecisionIdentities exercises the transcendentals at 300 bits via
// mathematical identities, since no 300-bit oracle is available in stdlib.
func TestHighPrecisionIdentities(t *testing.T) {
	const prec = 300
	tol := int64(prec - 20) // bits of agreement required

	closeEnough := func(a, b *Float) bool {
		if a.IsZero() && b.IsZero() {
			return true
		}
		d := New(prec + 10)
		d.Sub(a, b, RoundNearestEven)
		if d.IsZero() {
			return true
		}
		return d.exp <= a.exp-tol
	}

	x := New(prec)
	x.SetString("0.7390851332151606416553120876738734040134", RoundNearestEven)

	// sin² + cos² = 1
	s, c := New(prec), New(prec)
	s.Sin(x, RoundNearestEven)
	c.Cos(x, RoundNearestEven)
	ss, cc, sum := New(prec), New(prec), New(prec)
	ss.Mul(s, s, RoundNearestEven)
	cc.Mul(c, c, RoundNearestEven)
	sum.Add(ss, cc, RoundNearestEven)
	one := New(prec)
	one.SetUint64(1, RoundNearestEven)
	if !closeEnough(sum, one) {
		t.Errorf("sin²+cos² = %s, want 1", sum)
	}

	// exp(log(x)) = x
	l, e := New(prec), New(prec)
	l.Log(x, RoundNearestEven)
	e.Exp(l, RoundNearestEven)
	if !closeEnough(e, x) {
		t.Errorf("exp(log(x)) = %s, want %s", e, x)
	}

	// tan(atan(x)) = x
	a, tn := New(prec), New(prec)
	a.Atan(x, RoundNearestEven)
	tn.Tan(a, RoundNearestEven)
	if !closeEnough(tn, x) {
		t.Errorf("tan(atan(x)) = %s, want %s", tn, x)
	}

	// asin(sin(x)) = x for x in (-pi/2, pi/2)
	as := New(prec)
	as.Asin(s, RoundNearestEven)
	if !closeEnough(as, x) {
		t.Errorf("asin(sin(x)) = %s, want %s", as, x)
	}

	// sqrt(x)² = x
	sq, sq2 := New(prec), New(prec)
	sq.Sqrt(x, RoundNearestEven)
	sq2.Mul(sq, sq, RoundNearestEven)
	if !closeEnough(sq2, x) {
		t.Errorf("sqrt(x)² = %s, want %s", sq2, x)
	}

	// exp(1) matches e to prec bits.
	eConst := New(prec)
	eConst.Exp(one, RoundNearestEven)
	eRef := New(prec + 10)
	eRef.SetString("2.71828182845904523536028747135266249775724709369995957496696762772407663035354759457138217852516642742746639193200305992181741359662904357290033429526059563073813232862794349076323382988075319525101901", RoundNearestEven)
	if !closeEnough(eConst, eRef) {
		t.Errorf("exp(1) = %s", eConst)
	}
}

func TestFMASingleRounding(t *testing.T) {
	// Construct a case where fused and unfused differ: (1+2^-52)² at 53 bits.
	x := New(53)
	x.SetFloat64(1+math.Exp2(-52), RoundNearestEven)
	negOne := New(53)
	negOne.SetInt64(-1, RoundNearestEven)
	z := New(53)
	z.FMA(x, x, negOne, RoundNearestEven)
	a := x.Float64(RoundNearestEven)
	want := math.FMA(a, a, -1)
	if got := z.Float64(RoundNearestEven); got != want {
		t.Errorf("FMA = %g, want %g", got, want)
	}
	unfused := a*a - 1
	if want == unfused {
		t.Skip("testcase does not distinguish fused from unfused on this platform")
	}
}

func TestMul2Exp(t *testing.T) {
	x := New(53)
	x.SetFloat64(1.5, RoundNearestEven)
	z := New(53)
	z.Mul2Exp(x, 10, RoundNearestEven)
	if got := z.Float64(RoundNearestEven); got != 1536 {
		t.Errorf("1.5 * 2^10 = %g, want 1536", got)
	}
	z.Mul2Exp(x, -1, RoundNearestEven)
	if got := z.Float64(RoundNearestEven); got != 0.75 {
		t.Errorf("1.5 * 2^-1 = %g", got)
	}
}

func TestNegAbs(t *testing.T) {
	x := New(53)
	x.SetFloat64(-2.5, RoundNearestEven)
	z := New(53)
	z.Neg(x, RoundNearestEven)
	if got := z.Float64(RoundNearestEven); got != 2.5 {
		t.Errorf("Neg(-2.5) = %g", got)
	}
	z.Abs(x, RoundNearestEven)
	if got := z.Float64(RoundNearestEven); got != 2.5 {
		t.Errorf("Abs(-2.5) = %g", got)
	}
	inf := New(53)
	inf.SetInf(-1)
	z.Abs(inf, RoundNearestEven)
	if !z.IsInf() || z.Signbit() {
		t.Error("Abs(-Inf) should be +Inf")
	}
}

func TestSubnormalFloat64Conversion(t *testing.T) {
	// Values straddling the subnormal boundary must round correctly.
	x := New(200)
	// 2^-1075 exactly: ties to even → 0.
	x.SetUint64(1, RoundNearestEven)
	x.exp = -1074 // value 2^-1075
	if got := x.Float64(RoundNearestEven); got != 0 {
		t.Errorf("2^-1075 RNE = %g, want 0", got)
	}
	if got := x.Float64(RoundTowardPositive); got != math.SmallestNonzeroFloat64 {
		t.Errorf("2^-1075 RTP = %g, want min subnormal", got)
	}
	// 1.5 * 2^-1075 rounds to min subnormal in RNE.
	x.SetFloat64(1.5, RoundNearestEven)
	x.exp = -1074
	if got := x.Float64(RoundNearestEven); got != math.SmallestNonzeroFloat64 {
		t.Errorf("1.5*2^-1075 RNE = %g, want min subnormal", got)
	}
	// A value halfway between two subnormals.
	v := math.Float64frombits(5) // 5 * 2^-1074
	x.SetFloat64(v, RoundNearestEven)
	half := New(200)
	half.SetFloat64(math.Float64frombits(1), RoundNearestEven)
	half.exp-- // 2^-1075
	sum := New(200)
	sum.Add(x, half, RoundNearestEven) // 5.5 * 2^-1074 → ties to 6? no: exact halfway between 5 and 6 → even 6
	if got := sum.Float64(RoundNearestEven); got != math.Float64frombits(6) {
		t.Errorf("5.5*2^-1074 RNE = %x, want 6*2^-1074", math.Float64bits(got))
	}
	// Overflow handling.
	big := New(60)
	big.SetFloat64(math.MaxFloat64, RoundNearestEven)
	two := New(53)
	two.SetUint64(2, RoundNearestEven)
	prod := New(60)
	prod.Mul(big, two, RoundNearestEven)
	if got := prod.Float64(RoundNearestEven); !math.IsInf(got, 1) {
		t.Errorf("2*MaxFloat64 RNE = %g, want +Inf", got)
	}
	if got := prod.Float64(RoundTowardZero); got != math.MaxFloat64 {
		t.Errorf("2*MaxFloat64 RTZ = %g, want MaxFloat64", got)
	}
	if got := prod.Float64(RoundTowardNegative); got != math.MaxFloat64 {
		t.Errorf("2*MaxFloat64 RTN = %g, want MaxFloat64", got)
	}
}

func TestExpm1Log1p(t *testing.T) {
	vals := []float64{1e-30, -1e-30, 1e-10, 0.1, -0.1, 1, -0.5, 3}
	x, z := New(80), New(80)
	for _, v := range vals {
		x.SetFloat64(v, RoundNearestEven)
		z.Expm1(x, RoundNearestEven)
		checkClose(t, "Expm1", z, math.Expm1(v))
		if v > -1 {
			z.Log1p(x, RoundNearestEven)
			checkClose(t, "Log1p", z, math.Log1p(v))
		}
	}
}

func TestHypot(t *testing.T) {
	x, y, z := New(64), New(64), New(64)
	x.SetFloat64(3, RoundNearestEven)
	y.SetFloat64(4, RoundNearestEven)
	z.Hypot(x, y, RoundNearestEven)
	if got := z.Float64(RoundNearestEven); got != 5 {
		t.Errorf("Hypot(3,4) = %g, want 5", got)
	}
}

func BenchmarkAdd200(b *testing.B)  { benchOp(b, 200, (*Float).Add) }
func BenchmarkMul200(b *testing.B)  { benchOp(b, 200, (*Float).Mul) }
func BenchmarkDiv200(b *testing.B)  { benchOp(b, 200, (*Float).Div) }
func BenchmarkAdd2048(b *testing.B) { benchOp(b, 2048, (*Float).Add) }
func BenchmarkMul2048(b *testing.B) { benchOp(b, 2048, (*Float).Mul) }
func BenchmarkDiv2048(b *testing.B) { benchOp(b, 2048, (*Float).Div) }

func benchOp(b *testing.B, prec uint, op func(z, x, y *Float, rnd RoundingMode) int) {
	x, y, z := New(prec), New(prec), New(prec)
	x.SetString("3.14159265358979323846", RoundNearestEven)
	y.SetString("2.71828182845904523536", RoundNearestEven)
	// Fill the full precision with digits.
	x.Sqrt(x, RoundNearestEven)
	y.Sqrt(y, RoundNearestEven)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(z, x, y, RoundNearestEven)
	}
}

func BenchmarkSqrt200(b *testing.B) { benchUnary(b, "2.71828182845904523536", (*Float).Sqrt) }
func BenchmarkSin200(b *testing.B)  { benchUnary(b, "0.7853981633974483", (*Float).Sin) }
func BenchmarkLog200(b *testing.B)  { benchUnary(b, "2.71828182845904523536", (*Float).Log) }
func BenchmarkAsin200(b *testing.B) { benchUnary(b, "0.7853981633974483", (*Float).Asin) }
func BenchmarkAtan200(b *testing.B) { benchUnary(b, "0.7853981633974483", (*Float).Atan) }

func benchUnary(b *testing.B, arg string, op func(z, x *Float, rnd RoundingMode) int) {
	x, z := New(200), New(200)
	x.SetString(arg, RoundNearestEven)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(z, x, RoundNearestEven)
	}
}
