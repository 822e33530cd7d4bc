package mpnat

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// toBig converts a Nat to a math/big.Int for oracle comparisons.
func toBig(x Nat) *big.Int {
	z := new(big.Int)
	for i := len(x) - 1; i >= 0; i-- {
		z.Lsh(z, 64)
		z.Or(z, new(big.Int).SetUint64(x[i]))
	}
	return z
}

// fromBig converts a non-negative big.Int to a Nat.
func fromBig(v *big.Int) Nat {
	if v.Sign() < 0 {
		panic("fromBig: negative")
	}
	var z Nat
	t := new(big.Int).Set(v)
	mask := new(big.Int).SetUint64(^uint64(0))
	for t.Sign() != 0 {
		z = append(z, new(big.Int).And(t, mask).Uint64())
		t.Rsh(t, 64)
	}
	return z
}

func randNat(r *rand.Rand, maxLimbs int) Nat {
	n := r.Intn(maxLimbs + 1)
	z := make(Nat, n)
	for i := range z {
		z[i] = r.Uint64()
	}
	return z.Norm()
}

func TestNormAndZero(t *testing.T) {
	if !Nat(nil).IsZero() {
		t.Fatal("nil Nat should be zero")
	}
	if !(Nat{0, 0, 0}).IsZero() {
		t.Fatal("all-zero limbs should be zero")
	}
	x := Nat{5, 0, 0}.Norm()
	if len(x) != 1 || x[0] != 5 {
		t.Fatalf("Norm({5,0,0}) = %v, want {5}", x)
	}
	if (Nat{1}).IsZero() {
		t.Fatal("1 reported zero")
	}
}

func TestBitLen(t *testing.T) {
	cases := []struct {
		x    Nat
		want int
	}{
		{nil, 0},
		{Nat{1}, 1},
		{Nat{0x8000000000000000}, 64},
		{Nat{0, 1}, 65},
		{Nat{0xFFFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF}, 128},
	}
	for _, c := range cases {
		if got := c.x.BitLen(); got != c.want {
			t.Errorf("BitLen(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestBit(t *testing.T) {
	x := Nat{0b1011, 0b1}
	wants := map[int]uint{0: 1, 1: 1, 2: 0, 3: 1, 4: 0, 64: 1, 65: 0, 1000: 0}
	for i, want := range wants {
		if got := x.Bit(i); got != want {
			t.Errorf("Bit(%d) = %d, want %d", i, got, want)
		}
	}
	if x.Bit(-1) != 0 {
		t.Error("negative bit index should return 0")
	}
}

func TestAddProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		x, y := randNat(r, 8), randNat(r, 8)
		got := toBig(Add(x, y))
		want := new(big.Int).Add(toBig(x), toBig(y))
		if got.Cmp(want) != 0 {
			t.Fatalf("Add(%v,%v) = %v, want %v", x, y, got, want)
		}
	}
}

func TestSubProperty(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		x, y := randNat(r, 8), randNat(r, 8)
		if x.Cmp(y) < 0 {
			x, y = y, x
		}
		got := toBig(Sub(x, y))
		want := new(big.Int).Sub(toBig(x), toBig(y))
		if got.Cmp(want) != 0 {
			t.Fatalf("Sub(%v,%v) = %v, want %v", x, y, got, want)
		}
	}
}

func TestSubUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sub(1, 2) should panic")
		}
	}()
	Sub(Nat{1}, Nat{2})
}

func TestMulProperty(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		x, y := randNat(r, 6), randNat(r, 6)
		got := toBig(Mul(x, y))
		want := new(big.Int).Mul(toBig(x), toBig(y))
		if got.Cmp(want) != 0 {
			t.Fatalf("Mul(%v,%v) wrong", x, y)
		}
	}
}

func TestMulKaratsubaProperty(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 50; i++ {
		// Force limb counts over the Karatsuba threshold.
		x, y := randNat(r, 90), randNat(r, 90)
		for len(x) < karatsubaThreshold {
			x = append(x, r.Uint64()|1)
		}
		for len(y) < karatsubaThreshold {
			y = append(y, r.Uint64()|1)
		}
		got := toBig(Mul(x, y))
		want := new(big.Int).Mul(toBig(x), toBig(y))
		if got.Cmp(want) != 0 {
			t.Fatalf("Karatsuba Mul wrong at %d limbs x %d limbs", len(x), len(y))
		}
	}
}

func TestMulWordProperty(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		x, w := randNat(r, 6), r.Uint64()
		got := toBig(MulWord(x, w))
		want := new(big.Int).Mul(toBig(x), new(big.Int).SetUint64(w))
		if got.Cmp(want) != 0 {
			t.Fatalf("MulWord(%v,%d) wrong", x, w)
		}
	}
}

func TestShlShrProperty(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 1000; i++ {
		x := randNat(r, 5)
		s := uint(r.Intn(200))
		gotL := toBig(Shl(x, s))
		wantL := new(big.Int).Lsh(toBig(x), s)
		if gotL.Cmp(wantL) != 0 {
			t.Fatalf("Shl(%v,%d) wrong", x, s)
		}
		gotR := toBig(Shr(x, s))
		wantR := new(big.Int).Rsh(toBig(x), s)
		if gotR.Cmp(wantR) != 0 {
			t.Fatalf("Shr(%v,%d) wrong", x, s)
		}
	}
}

func TestDivModProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		x := randNat(r, 8)
		y := randNat(r, 4)
		if y.IsZero() {
			y = Nat{1 + r.Uint64()%100}
		}
		q, rem := DivMod(x, y)
		wantQ, wantR := new(big.Int).QuoRem(toBig(x), toBig(y), new(big.Int))
		if toBig(q).Cmp(wantQ) != 0 || toBig(rem).Cmp(wantR) != 0 {
			t.Fatalf("DivMod(%v,%v): got q=%v r=%v want q=%v r=%v",
				x, y, toBig(q), toBig(rem), wantQ, wantR)
		}
	}
}

func TestDivModKnuthHardCases(t *testing.T) {
	// Cases designed to exercise the qhat-correction paths in Algorithm D.
	cases := [][2]Nat{
		{Nat{0, 0, 0x8000000000000000}, Nat{1, 0x8000000000000000}},
		{Nat{^uint64(0), ^uint64(0), ^uint64(0)}, Nat{^uint64(0), 1}},
		{Nat{0, ^uint64(0), ^uint64(0) - 1}, Nat{^uint64(0), ^uint64(0)}},
		{Nat{1, 2, 3, 4}, Nat{5, 6}},
		{Nat{0, 0, 1}, Nat{1, 1}},
	}
	for _, c := range cases {
		q, r := DivMod(c[0], c[1])
		wantQ, wantR := new(big.Int).QuoRem(toBig(c[0]), toBig(c[1]), new(big.Int))
		if toBig(q).Cmp(wantQ) != 0 || toBig(r).Cmp(wantR) != 0 {
			t.Errorf("DivMod(%v, %v) wrong: got q=%v r=%v want q=%v r=%v",
				c[0], c[1], toBig(q), toBig(r), wantQ, wantR)
		}
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DivMod by zero should panic")
		}
	}()
	DivMod(Nat{1}, nil)
}

func TestDivModIdentity(t *testing.T) {
	// quick.Check property: x == q*y + r and r < y.
	f := func(a, b, c, d uint64) bool {
		x := Nat{a, b}.Norm()
		y := Nat{c, d}.Norm()
		if y.IsZero() {
			return true
		}
		q, r := DivMod(x, y)
		if r.Cmp(y) >= 0 {
			return false
		}
		return Add(Mul(q, y), r).Cmp(x) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestSqrtFloorProperty(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 300; i++ {
		x := randNat(r, 5)
		s := SqrtFloor(x)
		want := new(big.Int).Sqrt(toBig(x))
		if toBig(s).Cmp(want) != 0 {
			t.Fatalf("SqrtFloor(%v) = %v, want %v", toBig(x), toBig(s), want)
		}
	}
}

func TestSqrtFloorSmall(t *testing.T) {
	for i := uint64(0); i < 200; i++ {
		s := SqrtFloor(FromUint64(i))
		got, _ := s.Uint64()
		want := new(big.Int).Sqrt(new(big.Int).SetUint64(i)).Uint64()
		if got != want {
			t.Errorf("SqrtFloor(%d) = %d, want %d", i, got, want)
		}
	}
	// Perfect squares and off-by-one neighbors.
	for _, v := range []uint64{1 << 52, 1<<52 - 1, 1<<52 + 1, 1 << 62} {
		s := SqrtFloor(FromUint64(v))
		want := new(big.Int).Sqrt(new(big.Int).SetUint64(v))
		if toBig(s).Cmp(want) != 0 {
			t.Errorf("SqrtFloor(%d) wrong", v)
		}
	}
}

func TestTrailingZeros(t *testing.T) {
	cases := []struct {
		x    Nat
		want int
	}{
		{nil, 0},
		{Nat{1}, 0},
		{Nat{8}, 3},
		{Nat{0, 1}, 64},
		{Nat{0, 0, 4}, 130},
	}
	for _, c := range cases {
		if got := c.x.TrailingZeros(); got != c.want {
			t.Errorf("TrailingZeros(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestUint64Conversion(t *testing.T) {
	if v, ok := Nat(nil).Uint64(); v != 0 || !ok {
		t.Error("zero Nat should convert to 0")
	}
	if v, ok := (Nat{42}).Uint64(); v != 42 || !ok {
		t.Error("single-limb conversion failed")
	}
	if _, ok := (Nat{1, 1}).Uint64(); ok {
		t.Error("two-limb Nat should not fit uint64")
	}
}

func TestCmp(t *testing.T) {
	cases := []struct {
		x, y Nat
		want int
	}{
		{nil, nil, 0},
		{Nat{1}, nil, 1},
		{nil, Nat{1}, -1},
		{Nat{1}, Nat{2}, -1},
		{Nat{0, 1}, Nat{^uint64(0)}, 1},
		{Nat{5, 7}, Nat{5, 7}, 0},
		{Nat{6, 7}, Nat{5, 7}, 1},
	}
	for _, c := range cases {
		if got := c.x.Cmp(c.y); got != c.want {
			t.Errorf("Cmp(%v,%v) = %d, want %d", c.x, c.y, got, c.want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	x := Nat{1, 2, 3}
	y := x.Clone()
	y[0] = 99
	if x[0] != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func BenchmarkMulSchoolbook(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	x, y := randNat(r, 16), randNat(r, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}

func BenchmarkMulKaratsuba(b *testing.B) {
	r := rand.New(rand.NewSource(10))
	x, y := make(Nat, 128), make(Nat, 128)
	for i := range x {
		x[i], y[i] = r.Uint64(), r.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}

func BenchmarkDivMod(b *testing.B) {
	r := rand.New(rand.NewSource(11))
	x, y := make(Nat, 32), make(Nat, 16)
	for i := range x {
		x[i] = r.Uint64()
	}
	for i := range y {
		y[i] = r.Uint64()
	}
	y[15] |= 1 << 63
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DivMod(x, y)
	}
}

func TestSqrProperty(t *testing.T) {
	// Both squaring kernels against math/big: small sizes exercise
	// sqrSchoolbook, sizes above karatsubaThreshold exercise sqrKaratsuba
	// (including its recursion back into the schoolbook base case).
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 400; i++ {
		x := randNat(r, 6)
		if toBig(Sqr(x)).Cmp(new(big.Int).Mul(toBig(x), toBig(x))) != 0 {
			t.Fatalf("Sqr(%v) wrong (schoolbook)", toBig(x))
		}
	}
	for i := 0; i < 40; i++ {
		x := randNat(r, 90)
		if toBig(Sqr(x)).Cmp(new(big.Int).Mul(toBig(x), toBig(x))) != 0 {
			t.Fatalf("Sqr wrong at %d limbs (karatsuba)", len(x))
		}
	}
}

func TestSqrMatchesMul(t *testing.T) {
	// Sqr must be a pure optimization: bit-identical to Mul(x, x) at every
	// size, including boundary cases around the Karatsuba threshold.
	r := rand.New(rand.NewSource(13))
	sizes := []int{0, 1, 2, 3, karatsubaThreshold - 1, karatsubaThreshold,
		karatsubaThreshold + 1, 2 * karatsubaThreshold, 100}
	for _, n := range sizes {
		x := make(Nat, n)
		for i := range x {
			x[i] = r.Uint64()
		}
		x = x.Norm()
		if Sqr(x).Cmp(Mul(x, x)) != 0 {
			t.Fatalf("Sqr != Mul(x,x) at %d limbs", n)
		}
	}
	// Carry-chain stress: all-ones limbs maximize partial products.
	for _, n := range []int{1, 4, 24, 64} {
		x := make(Nat, n)
		for i := range x {
			x[i] = ^uint64(0)
		}
		if Sqr(x).Cmp(Mul(x, x)) != 0 {
			t.Fatalf("Sqr != Mul(x,x) for all-ones at %d limbs", n)
		}
	}
}

func BenchmarkSqrSchoolbook(b *testing.B) {
	r := rand.New(rand.NewSource(14))
	x := make(Nat, 16)
	for i := range x {
		x[i] = r.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sqr(x)
	}
}

func BenchmarkSqrViaMul16(b *testing.B) {
	r := rand.New(rand.NewSource(14))
	x := make(Nat, 16)
	for i := range x {
		x[i] = r.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(x, x)
	}
}

func BenchmarkSqrKaratsuba(b *testing.B) {
	r := rand.New(rand.NewSource(15))
	x := make(Nat, 128)
	for i := range x {
		x[i] = r.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sqr(x)
	}
}

func BenchmarkSqrViaMul128(b *testing.B) {
	r := rand.New(rand.NewSource(15))
	x := make(Nat, 128)
	for i := range x {
		x[i] = r.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(x, x)
	}
}
