package mpfr

import (
	"math/rand"
	"testing"
)

// TestTranscendentalFaithfulness verifies the documented contract of the
// transcendental functions: the result at precision p differs from a
// much-higher-precision recomputation by less than one ulp at p (faithful
// rounding). This is the property FPVM relies on; GNU MPFR additionally
// guarantees correct rounding via Ziv's loop, which we do not claim.
func TestTranscendentalFaithfulness(t *testing.T) {
	const prec = 128
	const refPrec = 512
	r := rand.New(rand.NewSource(90))

	type fn struct {
		name string
		call func(z, x *Float)
		gen  func() float64
	}
	fns := []fn{
		{"exp", func(z, x *Float) { z.Exp(x, RoundNearestEven) },
			func() float64 { return (r.Float64() - 0.5) * 100 }},
		{"log", func(z, x *Float) { z.Log(x, RoundNearestEven) },
			func() float64 { return r.Float64()*1e6 + 1e-9 }},
		{"sin", func(z, x *Float) { z.Sin(x, RoundNearestEven) },
			func() float64 { return (r.Float64() - 0.5) * 50 }},
		{"cos", func(z, x *Float) { z.Cos(x, RoundNearestEven) },
			func() float64 { return (r.Float64() - 0.5) * 50 }},
		{"tan", func(z, x *Float) { z.Tan(x, RoundNearestEven) },
			func() float64 { return (r.Float64() - 0.5) * 3 }},
		{"atan", func(z, x *Float) { z.Atan(x, RoundNearestEven) },
			func() float64 { return (r.Float64() - 0.5) * 1000 }},
		{"asin", func(z, x *Float) { z.Asin(x, RoundNearestEven) },
			func() float64 { return r.Float64()*1.99 - 0.995 }},
		{"acos", func(z, x *Float) { z.Acos(x, RoundNearestEven) },
			func() float64 { return r.Float64()*1.99 - 0.995 }},
		{"log2", func(z, x *Float) { z.Log2(x, RoundNearestEven) },
			func() float64 { return r.Float64()*100 + 1e-9 }},
		{"expm1", func(z, x *Float) { z.Expm1(x, RoundNearestEven) },
			func() float64 { return (r.Float64() - 0.5) * 2 }},
		{"log1p", func(z, x *Float) { z.Log1p(x, RoundNearestEven) },
			func() float64 { return r.Float64()*2 - 0.99 }},
	}

	for _, f := range fns {
		for i := 0; i < 60; i++ {
			v := f.gen()
			x := New(64)
			x.SetFloat64(v, RoundNearestEven)

			lo := New(prec)
			f.call(lo, x)
			hi := New(refPrec)
			f.call(hi, x)

			if lo.IsNaN() || hi.IsNaN() {
				if lo.IsNaN() != hi.IsNaN() {
					t.Fatalf("%s(%v): NaN disagreement", f.name, v)
				}
				continue
			}
			if hi.IsZero() {
				if !lo.IsZero() {
					t.Fatalf("%s(%v): zero disagreement", f.name, v)
				}
				continue
			}
			// |lo - hi| must be < 1 ulp of hi at precision prec:
			// ulp = 2^(exp(hi) - prec).
			d := New(refPrec)
			d.Sub(lo, hi, RoundNearestEven)
			if d.IsZero() {
				continue
			}
			ulpExp := hi.BinExp() - prec
			if d.BinExp() > ulpExp {
				t.Fatalf("%s(%.17g) at %d bits: error exponent %d exceeds ulp exponent %d (lo=%s hi=%s)",
					f.name, v, prec, d.BinExp(), ulpExp, lo, hi)
			}
		}
	}
}
