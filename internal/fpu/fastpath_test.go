package fpu

import (
	"math"
	"math/rand"
	"testing"
)

// pathOps pairs each fast-pathed op with its exact path. A unary op ignores
// its second operand.
var pathOps = []struct {
	name        string
	op, exactOp func(a, b float64) Result
}{
	{"add", Add, addExact},
	{"sub", Sub, subExact},
	{"mul", Mul, mulExact},
	{"div", Div, divExact},
	{"sqrt", func(a, _ float64) Result { return Sqrt(a) }, func(a, _ float64) Result { return sqrtExact(a) }},
}

// sameResult reports whether two results agree bit for bit on the value and
// on all six flags.
func sameResult(x, y Result) bool {
	return math.Float64bits(x.Value) == math.Float64bits(y.Value) && x.Flags == y.Flags
}

// windowEdges are the operands at and next to both edges of the fast-path
// window, each sign: the smallest magnitude inside and the largest below it,
// the largest inside and the smallest above it.
func windowEdges() []float64 {
	lo, hi := 0x1p-480, 0x1p481
	var v []float64
	for _, x := range []float64{
		lo, math.Nextafter(lo, 1), math.Nextafter(lo, 0), 1.5 * lo,
		math.Nextafter(hi, 0), hi, math.Nextafter(hi, math.Inf(1)), 0.75 * hi,
	} {
		v = append(v, x, -x)
	}
	return v
}

// TestWindowEdges pins which operands the fast path takes: exactly the
// magnitudes in [2^-480, 2^481), and for Sqrt only the positive ones.
func TestWindowEdges(t *testing.T) {
	for _, c := range []struct {
		x  float64
		in bool
	}{
		{0x1p-480, true}, {-0x1p-480, true}, {math.Nextafter(0x1p-480, 0), false},
		{math.Nextafter(0x1p481, 0), true}, {-math.Nextafter(0x1p481, 0), true}, {0x1p481, false},
		{1, true}, {0, false}, {math.Copysign(0, -1), false}, {0x1p-1074, false}, {0x1p-1022, false},
		{math.Inf(1), false}, {math.NaN(), false}, {math.Float64frombits(0x7FF0000000000006), false},
	} {
		if got := inWindow(c.x); got != c.in {
			t.Errorf("inWindow(%x) = %v, want %v", math.Float64bits(c.x), got, c.in)
		}
	}
	for _, x := range []float64{-1, -0x1p-480} {
		if r := Sqrt(x); r.Flags != FlagInvalid {
			t.Errorf("Sqrt(%v) flags = %v, want IE from the exact path", x, r.Flags)
		}
	}
}

// TestFastPathMatchesExactPath compares each fast-pathed op with its exact
// path, bit for bit on the value and on all six flags: every pair of window
// edges, every edge against the ordinary and special values, and random
// mantissas at exponents on both sides of both edges.
func TestFastPathMatchesExactPath(t *testing.T) {
	vals := append(windowEdges(), 1, 3, -1.0/3, 0.1, 1+0x1p-52, 0x1p-1022, 0x1p-1074,
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7FF0000000000006), math.MaxFloat64)
	type pair struct{ a, b float64 }
	var pairs []pair
	for _, a := range vals {
		for _, b := range vals {
			pairs = append(pairs, pair{a, b})
		}
	}
	rng := rand.New(rand.NewSource(25))
	near := func(e int) float64 {
		m := float64(rng.Int63n(1<<52) + 1<<52)
		x := math.Ldexp(m, e-52+rng.Intn(5)-2)
		if rng.Intn(2) == 0 {
			x = -x
		}
		return x
	}
	edges := []int{-481, -480, 480, 481, 0, -240, 240}
	for i := 0; i < 20000; i++ {
		pairs = append(pairs, pair{near(edges[rng.Intn(len(edges))]), near(edges[rng.Intn(len(edges))])})
	}
	fast := 0
	for _, p := range pairs {
		if inWindow(p.a) && inWindow(p.b) {
			fast++
		}
		for _, o := range pathOps {
			if got, want := o.op(p.a, p.b), o.exactOp(p.a, p.b); !sameResult(got, want) {
				t.Fatalf("%s(%x, %x) = {%x %v}, exact path {%x %v}", o.name,
					math.Float64bits(p.a), math.Float64bits(p.b),
					math.Float64bits(got.Value), got.Flags, math.Float64bits(want.Value), want.Flags)
			}
		}
	}
	if fast < len(pairs)/4 {
		t.Errorf("only %d of %d pairs took the fast path", fast, len(pairs))
	}
}

// FuzzFPU compares each fast-pathed op with its exact path on arbitrary
// operand bits, value and all six flags. The checked-in corpus sits at the
// window edges.
func FuzzFPU(f *testing.F) {
	f.Add(math.Float64bits(0x1p-480), math.Float64bits(0x1.8p-480))
	f.Add(math.Float64bits(math.Nextafter(0x1p481, 0)), math.Float64bits(-0x1p481))
	f.Fuzz(func(t *testing.T, a, b uint64) {
		x, y := math.Float64frombits(a), math.Float64frombits(b)
		for _, o := range pathOps {
			if got, want := o.op(x, y), o.exactOp(x, y); !sameResult(got, want) {
				t.Fatalf("%s(%x, %x) = {%x %v}, exact path {%x %v}", o.name, a, b,
					math.Float64bits(got.Value), got.Flags, math.Float64bits(want.Value), want.Flags)
			}
		}
	})
}

// benchSink keeps the benchmarked results live.
var benchSink Result

// BenchmarkOps times each fast-pathed op on inexact operands inside the
// window ("window") and on operands outside it that take the exact path:
// a subnormal first operand ("exact").
func BenchmarkOps(b *testing.B) {
	forms := []struct {
		name string
		a, b float64
	}{
		{"window", 0.1, 0.7},
		{"exact", 3 * math.SmallestNonzeroFloat64, 0.7},
	}
	for _, o := range pathOps {
		for _, fm := range forms {
			b.Run(o.name+"/"+fm.name, func(b *testing.B) {
				op, x, y := o.op, fm.a, fm.b
				for i := 0; i < b.N; i++ {
					benchSink = op(x, y)
				}
			})
		}
	}
}
