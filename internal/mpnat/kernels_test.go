package mpnat

import (
	"math/big"
	"math/rand"
	"testing"
)

// randLimbs returns a normalized Nat of exactly n limbs.
func randLimbs(r *rand.Rand, n int) Nat {
	z := make(Nat, n)
	for i := range z {
		z[i] = r.Uint64()
	}
	if n > 0 && z[n-1] == 0 {
		z[n-1] = 1
	}
	return z
}

// randBits returns a Nat of exactly b bits (b >= 1).
func randBits(r *rand.Rand, b int) Nat {
	z := randLimbs(r, (b+63)/64)
	if rem := b % 64; rem != 0 {
		z[len(z)-1] &= 1<<rem - 1
	}
	z[len(z)-1] |= 1 << ((b - 1) % 64)
	return z
}

func checkSqrtRem(t *testing.T, x Nat) {
	t.Helper()
	bx := toBig(x)
	want := new(big.Int).Sqrt(bx)
	wantRem := new(big.Int).Sub(bx, new(big.Int).Mul(want, want))
	if got := SqrtFloor(x); toBig(got).Cmp(want) != 0 {
		t.Fatalf("SqrtFloor(%v) = %v, want %v", bx, toBig(got), want)
	}
	root, rem := Nat(nil).SqrtRem(nil, x, nil)
	if toBig(root).Cmp(want) != 0 || toBig(rem).Cmp(wantRem) != 0 {
		t.Fatalf("SqrtRem(%v) = %v, %v; want %v, %v", bx, toBig(root), toBig(rem), want, wantRem)
	}
	if len(root) > 0 && root[len(root)-1] == 0 || len(rem) > 0 && rem[len(rem)-1] == 0 {
		t.Fatalf("SqrtRem(%v) result not normalized", bx)
	}
}

func TestSqrtRemVsBig(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for n := 1; n <= 40; n++ {
		for i := 0; i < 25; i++ {
			x := randLimbs(r, n)
			checkSqrtRem(t, x)
			// Around perfect squares: k², k²−1 and k²+2k = (k+1)²−1, the
			// largest value whose root is still k.
			k := randLimbs(r, (n+1)/2)
			k2 := Sqr(k)
			checkSqrtRem(t, k2)
			checkSqrtRem(t, Sub(k2, Nat{1}))
			checkSqrtRem(t, Add(k2, Shl(k, 1)))
		}
	}
	// Bit lengths 50–66 straddle the one-word path and the 62-bit seed.
	for b := 50; b <= 66; b++ {
		for i := 0; i < 200; i++ {
			checkSqrtRem(t, randBits(r, b))
		}
		all := Sub(Shl(Nat{1}, uint(b)), Nat{1}) // 2^b − 1
		checkSqrtRem(t, all)
		checkSqrtRem(t, Shl(Nat{1}, uint(b-1)))
	}
}

// op2 is a destination-passing binary op under test, with its oracle.
type op2 struct {
	name string
	f    func(z, x, y Nat) Nat
	want func(x, y *big.Int) *big.Int
}

var ops2 = []op2{
	{"Add", func(z, x, y Nat) Nat { return z.Add(x, y) },
		func(x, y *big.Int) *big.Int { return new(big.Int).Add(x, y) }},
	{"Sub", func(z, x, y Nat) Nat { return z.Sub(x, y) },
		func(x, y *big.Int) *big.Int { return new(big.Int).Sub(x, y) }},
	{"Mul", func(z, x, y Nat) Nat { return z.Mul(x, y) },
		func(x, y *big.Int) *big.Int { return new(big.Int).Mul(x, y) }},
	{"Quo", func(z, x, y Nat) Nat { q, _ := z.DivMod(nil, x, y, nil); return q },
		func(x, y *big.Int) *big.Int { return new(big.Int).Quo(x, y) }},
	{"Rem", func(z, x, y Nat) Nat { _, r := Nat(nil).DivMod(z, x, y, nil); return r },
		func(x, y *big.Int) *big.Int { return new(big.Int).Rem(x, y) }},
	{"RemScratch", func(z, x, y Nat) Nat { _, r := Nat(nil).DivMod(nil, x, y, z); return r },
		func(x, y *big.Int) *big.Int { return new(big.Int).Rem(x, y) }},
}

// withRoom returns a copy of x with spare capacity, so that a kernel using
// it as a destination really writes in place.
func withRoom(x Nat) Nat {
	z := make(Nat, len(x), 2*len(x)+8)
	copy(z, x)
	return z
}

// TestAliasing runs every destination-passing op with z aliasing x, y or
// both, and checks the result against math/big.
func TestAliasing(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for _, op := range ops2 {
		for i := 0; i < 300; i++ {
			x, y := randLimbs(r, 1+r.Intn(30)), randLimbs(r, 1+r.Intn(30))
			if i%3 == 0 {
				y = randLimbs(r, 1+r.Intn(3)) // one-word divisors, short addends
			}
			if op.name == "Sub" && x.Cmp(y) < 0 {
				x, y = y, x
			}
			bx, by := toBig(x), toBig(y)
			want := op.want(bx, by)
			check := func(how string, got Nat) {
				t.Helper()
				if toBig(got).Cmp(want) != 0 {
					t.Fatalf("%s with %s: got %v, want %v (x=%v y=%v)", op.name, how, toBig(got), want, bx, by)
				}
			}
			check("fresh z", op.f(nil, x, y))
			xa := withRoom(x)
			check("z = x", op.f(xa, xa, y))
			ya := withRoom(y)
			check("z = y", op.f(ya, x, ya))
			xa = withRoom(x)
			want = op.want(bx, bx)
			check("z = x = y", op.f(xa, xa, xa))
		}
	}
}

func TestAliasingUnary(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		x := randLimbs(r, 1+r.Intn(40))
		bx := toBig(x)
		s := uint(r.Intn(300))
		check := func(name string, got Nat, want *big.Int) {
			t.Helper()
			if toBig(got).Cmp(want) != 0 {
				t.Fatalf("%s in place: got %v, want %v (x=%v)", name, toBig(got), want, bx)
			}
		}
		xa := withRoom(x)
		check("Shl", xa.Shl(xa, s), new(big.Int).Lsh(bx, s))
		xa = withRoom(x)
		check("Shr", xa.Shr(xa, s), new(big.Int).Rsh(bx, s))
		xa = withRoom(x)
		check("Sqr", xa.Sqr(xa), new(big.Int).Mul(bx, bx))
		xa = withRoom(x)
		check("Set", xa.Set(xa), bx)
		w := r.Uint64()
		xa = withRoom(x)
		check("AddWord", xa.AddWord(xa, w), new(big.Int).Add(bx, new(big.Int).SetUint64(w)))
		xa = withRoom(x)
		check("MulWord", xa.MulWord(xa, w), new(big.Int).Mul(bx, new(big.Int).SetUint64(w)))
		xa = withRoom(x)
		want := new(big.Int).Sqrt(bx)
		root, _ := xa.SqrtRem(nil, xa, nil)
		check("SqrtRem root", root, want)
		xa = withRoom(x)
		_, rem := Nat(nil).SqrtRem(xa, xa, nil)
		check("SqrtRem rem", rem, new(big.Int).Sub(bx, new(big.Int).Mul(want, want)))
	}
}

// TestKernelsDoNotAllocate pins the documented capacities: with them, the
// kernels run entirely in caller-supplied storage.
func TestKernelsDoNotAllocate(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	x, y := randLimbs(r, 7), randLimbs(r, 4)
	z := make(Nat, 0, 16)
	cases := []struct {
		name string
		f    func()
	}{
		{"Add", func() { z = z.Add(x, y) }},
		{"Sub", func() { z = z.Sub(x, y) }},
		{"Shl", func() { z = z.Shl(x, 131) }},
		{"Shr", func() { z = z.Shr(x, 131) }},
		{"Mul", func() { z = z.Mul(x, y) }},
		{"Sqr", func() { z = z.Sqr(x) }},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(50, c.f); n != 0 {
			t.Errorf("%s allocates %.0f times with room in its destination", c.name, n)
		}
	}
	for n := 2; n <= 24; n++ {
		x, y := randLimbs(r, n), randLimbs(r, 1+r.Intn(n))
		q, rem, s := make(Nat, 0, n-len(y)+1), make(Nat, 0, n+1), make(Nat, 0, len(y))
		if a := testing.AllocsPerRun(20, func() { q.DivMod(rem, x, y, s) }); a != 0 {
			t.Errorf("DivMod of %d by %d words allocates %.0f times", n, len(y), a)
		}
		// A one-word divisor needs no scratch and one word of remainder.
		q1, r1, w := make(Nat, 0, n), make(Nat, 0, 1), Nat{r.Uint64() | 1}
		if a := testing.AllocsPerRun(20, func() { q1.DivMod(r1, x, w, nil) }); a != 0 {
			t.Errorf("DivMod of %d words by one word allocates %.0f times", n, a)
		}
		root, rem, s := make(Nat, 0, (n+1)/2), make(Nat, 0, n+1), make(Nat, 0, 4*n+12)
		if a := testing.AllocsPerRun(20, func() { root.SqrtRem(rem, x, s) }); a != 0 {
			t.Errorf("SqrtRem of %d words allocates %.0f times", n, a)
		}
	}
}

// TestSqrtRemNVsBig checks the precision-doubling square root on
// normalized inputs of 1 to 60 root words, including the edges of the
// normalization range and the neighbours of perfect squares, where the
// final correction step decides the root.
func TestSqrtRemNVsBig(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	check := func(a Nat) {
		t.Helper()
		n := len(a) / 2
		ba := toBig(a)
		want := new(big.Int).Sqrt(ba)
		wantRem := new(big.Int).Sub(ba, new(big.Int).Mul(want, want))
		s, w := make(Nat, n), append(Nat(nil), a...)
		rh := SqrtRemN(s, w, make(Nat, n/2+1))
		rem := append(Nat(nil), w[:n]...)
		rem = append(rem, rh)
		if toBig(s).Cmp(want) != 0 || toBig(rem).Cmp(wantRem) != 0 {
			t.Fatalf("SqrtRemN(%x) = %x, %x; want %x, %x", ba, toBig(s), toBig(rem), want, wantRem)
		}
	}
	for n := 1; n <= 60; n++ {
		for i := 0; i < 20; i++ {
			a := randLimbs(r, 2*n)
			a[2*n-1] |= 1 << 62
			if i%4 == 1 {
				a[2*n-1] &^= 1 << 63 // the smallest top words
			}
			check(a)
			// (k±1)² and k²-1 around a root k with its top bit set.
			k := randLimbs(r, n)
			k[n-1] |= 1 << 63
			for _, v := range []Nat{Sqr(k), Sub(Sqr(k), Nat{1}), Add(Sqr(k), Shl(k, 1))} {
				if len(v) == 2*n {
					check(v)
				}
			}
		}
		ones := make(Nat, 2*n)
		for i := range ones {
			ones[i] = ^uint64(0)
		}
		check(ones)
		check(Shl(Nat{1}, uint(128*n-2)))
	}
}

// TestSqrtRem2Edges checks the one-word root at the edges of its seed:
// roots near 2^63 and 2^64-1, where math.Sqrt's estimate is clamped.
func TestSqrtRem2Edges(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	his := []uint64{1 << 62, 1<<62 + 1, 1<<63 - 1, 1 << 63, ^uint64(0) - 1<<14, ^uint64(0) - 2, ^uint64(0) - 1, ^uint64(0)}
	for i := 0; i < 200; i++ {
		his = append(his, ^uint64(0)-uint64(r.Intn(1<<16)), r.Uint64()|1<<62)
	}
	for _, hi := range his {
		for _, lo := range []uint64{0, 1, 1 << 63, ^uint64(0), r.Uint64()} {
			a := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
			a.Or(a, new(big.Int).SetUint64(lo))
			want := new(big.Int).Sqrt(a)
			s, rlo, rhi := sqrtRem2(hi, lo)
			rem := new(big.Int).Lsh(new(big.Int).SetUint64(rhi), 64)
			rem.Or(rem, new(big.Int).SetUint64(rlo))
			if want.Cmp(new(big.Int).SetUint64(s)) != 0 || rem.Cmp(a.Sub(a, want.Mul(want, want))) != 0 {
				t.Fatalf("sqrtRem2(%#x, %#x) = %#x, rem %v", hi, lo, s, rem)
			}
		}
	}
}

// TestDivRemNVsBig checks the unnormalizing division kernel: quotient top
// word, low quotient words and remainder, for divisors of 1 to 30 words
// whose top word has its top bit set.
func TestDivRemNVsBig(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	for n := 1; n <= 30; n++ {
		for i := 0; i < 40; i++ {
			v := randLimbs(r, n)
			v[n-1] |= 1 << 63
			u := randLimbs(r, n+r.Intn(12))
			if i%5 == 0 {
				copy(u[len(u)-n:], v) // top words equal to v: the qh = 1 edge
			}
			bu, bv := toBig(u), toBig(v)
			q := make(Nat, len(u)-n+1)
			w := append(Nat(nil), u...)
			q[len(u)-n] = DivRemN(q[:len(u)-n], w, v)
			wantQ, wantR := new(big.Int).QuoRem(bu, bv, new(big.Int))
			if toBig(q).Cmp(wantQ) != 0 || toBig(w[:n]).Cmp(wantR) != 0 {
				t.Fatalf("DivRemN(%x, %x) = %x rem %x; want %x rem %x", bu, bv, toBig(q), toBig(w[:n]), wantQ, wantR)
			}
		}
	}
}

// TestMulNSqrNVsBig checks the schoolbook and Karatsuba paths of MulN and
// SqrN on operands whose top words may be zero, as mpfr passes them.
func TestMulNSqrNVsBig(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	for i := 0; i < 200; i++ {
		x, y := randLimbs(r, 1+r.Intn(60)), randLimbs(r, 1+r.Intn(60))
		if i%3 == 0 {
			x[len(x)-1] = 0
		}
		z := make(Nat, len(x)+len(y))
		MulN(z, x, y)
		if want := new(big.Int).Mul(toBig(x), toBig(y)); toBig(z).Cmp(want) != 0 {
			t.Fatalf("MulN(%x, %x) = %x, want %x", toBig(x), toBig(y), toBig(z), want)
		}
		s := make(Nat, 2*len(x))
		SqrN(s, x)
		if want := new(big.Int).Mul(toBig(x), toBig(x)); toBig(s).Cmp(want) != 0 {
			t.Fatalf("SqrN(%x) = %x, want %x", toBig(x), toBig(s), want)
		}
	}
}

// BenchmarkSqrtRem times the square root with remainder of an 8-word
// (512-bit) value, the size mpfr's Sqrt computes at 200 bits.
func BenchmarkSqrtRem(b *testing.B) {
	r := rand.New(rand.NewSource(29))
	x := randLimbs(r, 8)
	root, rem, s := make(Nat, 0, 4), make(Nat, 0, 9), make(Nat, 0, 4*8+12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root.SqrtRem(rem, x, s)
	}
}
