package fpu

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// fmaddBig is FMAdd with its exactness decided by big.Float, the oracle
// fmaExact is tested against. fmaOraclePrec is wide enough for a*b + c to be
// exact for every triple of finite doubles: the product's lowest bit sits no
// lower than 2^-2148 and the sum's top bit no higher than 2^2049.
func fmaddBig(a, b, c float64) Result {
	f := operandFlags(a, b, c)
	if isNaNf(a) || isNaNf(b) || isNaNf(c) {
		return Result{propagateNaN(a, b, c), f}
	}
	if (a == 0 && isInff(b)) || (b == 0 && isInff(a)) {
		return Result{math.Float64frombits(qnanBits), f | FlagInvalid}
	}
	r := math.FMA(a, b, c)
	if isNaNf(r) {
		return Result{math.Float64frombits(qnanBits), f | FlagInvalid}
	}
	if isInff(a) || isInff(b) || isInff(c) {
		return Result{r, f}
	}
	return Result{r, f | postFlags(r, !fmaExactBig(a, b, c, r))}
}

const fmaOraclePrec = 4300

func fmaExactBig(a, b, c, r float64) bool {
	big64 := func(x float64) *big.Float { return new(big.Float).SetPrec(fmaOraclePrec).SetFloat64(x) }
	exact := big64(0)
	exact.Mul(big64(a), big64(b))
	exact.Add(exact, big64(c))
	return big64(r).Cmp(exact) == 0
}

// checkFMA compares FMAdd with the oracle on one triple, value bits and
// flags both.
func checkFMA(t *testing.T, a, b, c float64) bool {
	t.Helper()
	got, want := FMAdd(a, b, c), fmaddBig(a, b, c)
	if math.Float64bits(got.Value) != math.Float64bits(want.Value) || got.Flags != want.Flags {
		t.Errorf("FMAdd(%x, %x, %x) = {%x %v}, oracle {%x %v}",
			math.Float64bits(a), math.Float64bits(b), math.Float64bits(c),
			math.Float64bits(got.Value), got.Flags, math.Float64bits(want.Value), want.Flags)
		return false
	}
	return true
}

// TestFMAddEdgeCases covers signed zeros, infinities, NaNs, subnormal and
// overflowing products, exact cancellation, and addends far below or above
// the product.
func TestFMAddEdgeCases(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	sub, minNorm, maxF := math.SmallestNonzeroFloat64, 0x1p-1022, math.MaxFloat64
	negZero := math.Copysign(0, -1)
	vals := []float64{
		0, negZero, 1, -1, 0.5, 3, -7, 0.1, 1e-300, 1e300, 0x1p500, -0x1p500,
		sub, -sub, 3 * sub, minNorm, -minNorm, minNorm / 2, 0x1p-537, 0x1p-538,
		maxF, -maxF, 0x1p1023, 1 + 0x1p-52, 1 - 0x1p-53, inf, -inf, nan,
		math.Float64frombits(0x7FF0000000000001), // signaling NaN
	}
	for _, a := range vals {
		for _, b := range vals {
			for _, c := range vals {
				checkFMA(t, a, b, c)
			}
		}
	}
	// Cases a 300-bit big.Float check gets wrong: the addend is so far below
	// the product that rounding the exact sum to 300 bits drops it.
	for _, c := range [][3]float64{
		{0x1p500, 0x1p500, sub},
		{0x1p-500, 0x1p-500, 0x1p900},
		{3, 0x1p1000, -sub},
	} {
		if !checkFMA(t, c[0], c[1], c[2]) || FMAdd(c[0], c[1], c[2]).Flags&FlagInexact == 0 {
			t.Errorf("FMAdd(%g, %g, %g) must raise PE", c[0], c[1], c[2])
		}
	}
}

// TestFMAddMatchesBigOracle differential-tests FMAdd against fmaddBig on
// over a million random triples drawn from several families: raw bit
// patterns, mantissas of few significant bits (often exact), products with
// their own rounding error as addend (exact cancellation), and the
// subnormal and overflow boundaries. The subnormal family also checks Mul's
// inexact flag against the exact product.
func TestFMAddMatchesBigOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// few returns ±k·2^e with k a random integer of at most bits bits.
	few := func(bits uint, elo, ehi int) float64 {
		k := float64(rng.Int63n(1<<bits) + 1)
		if rng.Intn(2) == 0 {
			k = -k
		}
		return math.Ldexp(k, elo+rng.Intn(ehi-elo+1))
	}
	anyBits := func() float64 { return math.Float64frombits(rng.Uint64()) }
	const n = 1 << 20
	fails := 0
	for i := 0; i < n && fails < 20; i++ {
		var a, b, c float64
		switch i % 6 {
		case 0:
			a, b, c = anyBits(), anyBits(), anyBits()
		case 1:
			a, b = few(26, -40, 40), few(26, -40, 40)
			c = few(53, -100, 100)
		case 2:
			a, b = few(30, -60, 60), few(30, -60, 60)
			c = -a * b // the rounded product: the sum is the product's error
			switch rng.Intn(3) {
			case 1:
				c = math.Nextafter(c, math.Inf(1))
			case 2:
				c += few(40, -150, -60)
			}
		case 3: // products and addends around the subnormal range
			a, b = few(30, -560, -500), few(30, -560, -500)
			c = few(20, -1074, -1000)
		case 4: // products at the overflow edge, pulled back by the addend
			a, b = few(53, 440, 460), few(53, 440, 460)
			c = -few(53, 960, 971)
		case 5:
			a, b = few(53, -1100, 1000), few(53, -1100, 1000)
			c = few(53, -1100, 1000)
		}
		if !checkFMA(t, a, b, c) {
			fails++
		}
		// A product in the subnormal range decides its PE with fmaExact too.
		if r := Mul(a, b); i%6 == 3 && isSubn(r.Value) && (r.Flags&FlagInexact != 0) == fmaExactBig(a, b, 0, r.Value) {
			t.Errorf("Mul(%g, %g) = %v: PE disagrees with the exact product", a, b, r)
			fails++
		}
	}
}

// TestFMAddAllocatesNothing pins the allocation-free exactness check.
func TestFMAddAllocatesNothing(t *testing.T) {
	a, b, c := 0.1, 0.7, -0.07
	if n := testing.AllocsPerRun(100, func() { FMAdd(a, b, c) }); n != 0 {
		t.Errorf("FMAdd allocates %.0f times per call, want 0", n)
	}
}

// exactOps pairs Add, Sub, Mul, Div and Sqrt with their big.Float
// counterparts.
var exactOps = map[string]struct {
	fpu   func(a, b float64) Result
	exact func(z, x, y *big.Float) *big.Float
}{
	"add":  {Add, (*big.Float).Add},
	"sub":  {Sub, (*big.Float).Sub},
	"mul":  {Mul, (*big.Float).Mul},
	"div":  {Div, (*big.Float).Quo},
	"sqrt": {func(a, _ float64) Result { return Sqrt(a) }, func(z, x, _ *big.Float) *big.Float { return z.Sqrt(x) }},
}

// TestMulDivSqrtMatchExactOracle checks the value bits and the inexact flag
// of Add, Sub, Mul, Div and Sqrt against big.Float at 3,000 bits, over
// operand families around 2^-1022 and in the subnormal range, where an FMA
// residual underflows to zero, and at both edges of the fast-path exponent
// window. At that precision a sum or product is exact, and a quotient or
// square root that is not exact cannot round onto the binary64 rounding
// boundary next to it. The first two rows are results an FMA-residual test
// reported as exact.
func TestMulDivSqrtMatchExactOracle(t *testing.T) {
	type row struct {
		op   string
		a, b float64
	}
	rows := []row{
		{"mul", 1 - 0x1p-53, 0x1p-1022},
		{"sqrt", 3 * math.SmallestNonzeroFloat64, 0},
		{"mul", 0x1p-1000, 0x1p-60},
	}
	rng := rand.New(rand.NewSource(10))
	// near draws a random 53-bit mantissa at an exponent in [elo, ehi],
	// rounded into the subnormal range below 2^-1022.
	near := func(elo, ehi int) float64 {
		return math.Ldexp(float64(rng.Int63n(1<<52)+1<<52), elo-52+rng.Intn(ehi-elo+1))
	}
	sub := func() float64 { return math.Float64frombits(rng.Uint64() & (1<<52 - 1)) }
	for i := 0; i < 5000; i++ {
		rows = append(rows,
			row{"mul", near(-1030, -1016), near(-4, 4)},
			row{"mul", sub(), math.Ldexp(float64(rng.Intn(64)+1), -rng.Intn(8))},
			row{"div", near(-1022, -902), near(-2, 140)},
			row{"div", sub(), near(-4, 4)},
			row{"sqrt", sub(), 0},
			row{"sqrt", near(-1030, -1016), 0},
			row{"add", near(-1030, -1016), near(-1030, -960)},
			row{"sub", sub(), near(-1076, -1016)},
			row{"add", near(-1100, -1000), -near(-1100, -1000)})
	}
	// The window edges, 2^-480 and 2^481, each side, against each other and
	// against values far from them, for every op.
	edges := []float64{0x1p-480, math.Nextafter(0x1p-480, 0), math.Nextafter(0x1p481, 0), 0x1p481}
	for i := 0; i < 2000; i++ {
		e := edges[rng.Intn(len(edges))] * (1 + float64(rng.Intn(1<<20))*0x1p-52)
		for op := range exactOps {
			rows = append(rows, row{op, e, near(-490, 490)}, row{op, near(-490, 490), e}, row{op, e, -edges[rng.Intn(len(edges))]})
		}
	}
	fails := 0
	for _, r := range rows {
		x, y := new(big.Float).SetPrec(3000).SetFloat64(r.a), new(big.Float).SetPrec(3000).SetFloat64(r.b)
		z := exactOps[r.op].exact(new(big.Float).SetPrec(3000), x, y)
		want, acc := z.Float64()
		inexact := z.Acc() != big.Exact || acc != big.Exact
		if got := exactOps[r.op].fpu(r.a, r.b); math.Float64bits(got.Value) != math.Float64bits(want) ||
			(got.Flags&FlagInexact != 0) != inexact {
			t.Errorf("%s(%x, %x) = {%x %v}, oracle value %x inexact %v", r.op, math.Float64bits(r.a),
				math.Float64bits(r.b), math.Float64bits(got.Value), got.Flags, math.Float64bits(want), inexact)
			if fails++; fails > 20 {
				t.Fatal("too many mismatches")
			}
		}
	}
}

// TestMulDivSqrtAllocateNothing pins the allocation-free exactness check on
// operands whose results sit at the subnormal boundary.
func TestMulDivSqrtAllocateNothing(t *testing.T) {
	for name, op := range exactOps {
		if n := testing.AllocsPerRun(100, func() { op.fpu(3*math.SmallestNonzeroFloat64, 0.75) }); n != 0 {
			t.Errorf("%s allocates %.0f times per call, want 0", name, n)
		}
	}
}
