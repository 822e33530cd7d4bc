package arith

import (
	"math"
	"runtime"
	"testing"

	"fpvm/internal/fpu"
	"fpvm/internal/posit"
)

// embedded is a System wrapper of the kind a tracer or the sanitizer is:
// it embeds the System it forwards to.
type embedded struct{ System }

// TestStoreMatchesSystem runs every op over a set of operands through the
// Store of each system and through the System's own boxed methods, and
// requires the same result: the formatted value, its demotion and integer
// conversion, and the comparison against each operand. Vanilla and bfloat16
// take the float64 cells, MPFR-200 the mpfr.Float cells, and posit32,
// interval and a wrapped Vanilla the boxed adapter.
func TestStoreMatchesSystem(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -2.5, 1.0 / 3, 1e300, -1e-310, 7, math.Inf(1), math.NaN()}
	systems := []System{
		Vanilla{}, BFloat16System{}, NewMPFR(200), NewPosit(posit.Posit32),
		IntervalSystem{}, embedded{Vanilla{}},
	}
	for _, sys := range systems {
		st := StoreFor(sys, nil)
		// The operands go into key cells far enough out to grow the store.
		cell := func(i int) Cell { return KeyCell(uint64(5000 + i)) }
		for i, v := range vals {
			st.SetFloat64(0, v)
			st.Move(cell(i), 0)
		}
		boxed := make([]Value, len(vals))
		for i, v := range vals {
			boxed[i] = sys.FromFloat64(v)
		}
		for op := Op(0); op < NumOps; op++ {
			for i := range vals {
				j, k := (i+3)%len(vals), (i+7)%len(vals)
				st.Apply(op, NumScratch-1, cell(i), cell(j), cell(k))
				want := sys.Apply(op, []Value{boxed[i], boxed[j], boxed[k]}[:op.Arity()]...)
				if got, w := st.Format(NumScratch-1), sys.Format(want); got != w {
					t.Errorf("%s %s(%g, %g, %g): store %s, system %s", sys.Name(), op, vals[i], vals[j], vals[k], got, w)
					continue
				}
				if got, w := st.Float64(NumScratch-1), sys.ToFloat64(want); math.Float64bits(got) != math.Float64bits(w) {
					t.Errorf("%s %s: demotes to %x, system %x", sys.Name(), op, math.Float64bits(got), math.Float64bits(w))
				}
				for _, rc := range []fpu.RoundingControl{fpu.RCNearest, fpu.RCZero} {
					gi, gok := st.Int64(NumScratch-1, rc)
					wi, wok := sys.ToInt64(want, rc)
					if gi != wi || gok != wok {
						t.Errorf("%s %s: Int64 %d %v, system %d %v", sys.Name(), op, gi, gok, wi, wok)
					}
				}
				gord, gun := st.Compare(NumScratch-1, cell(j))
				word, wun := sys.Compare(want, boxed[j])
				if gord != word || gun != wun {
					t.Errorf("%s %s: Compare %d %v, system %d %v", sys.Name(), op, gord, gun, word, wun)
				}
			}
		}
		for _, n := range []int64{0, -3, 1 << 60, math.MinInt64} {
			st.SetInt64(1, n)
			if got, w := st.Format(1), sys.Format(sys.FromInt64(n)); got != w {
				t.Errorf("%s SetInt64(%d): store %s, system %s", sys.Name(), n, got, w)
			}
		}
	}
}

// TestStoreForReuse pins the store selection: the previous store is kept
// when it serves the next system (MPFR cells only at the same precision),
// and a wrapper that embeds a typed system takes the boxed adapter.
func TestStoreForReuse(t *testing.T) {
	van := StoreFor(Vanilla{}, nil)
	if StoreFor(BFloat16System{}, van) != van || StoreFor(Vanilla{}, van) != van {
		t.Error("Vanilla and bfloat16 should reuse the float64 store")
	}
	mp := StoreFor(NewMPFR(200), van)
	if StoreFor(NewMPFR(200), mp) != mp {
		t.Error("a second MPFR-200 system should reuse the MPFR cells")
	}
	if StoreFor(NewMPFR(100), mp) == mp {
		t.Error("another precision needs new MPFR cells")
	}
	if _, ok := StoreFor(embedded{Vanilla{}}, van).(*boxedStore); !ok {
		t.Error("a wrapper that embeds Vanilla must take the boxed adapter")
	}
	if _, ok := StoreFor(NewPosit(posit.Posit32), mp).(*boxedStore); !ok {
		t.Error("posit32 must take the boxed adapter")
	}
}

// TestMPFRStoreAllocatesNothing is the MPFR-200 zero-allocation gate at the
// store: once the cells exist, the basic ops, floor and fmod compute in
// place (fmod's quotient and product live in the store's own scratch), and
// the transcendentals keep their temporaries on the stack.
func TestMPFRStoreAllocatesNothing(t *testing.T) {
	st := StoreFor(NewMPFR(200), nil)
	st.SetFloat64(1, 1)
	st.SetFloat64(2, 3)
	st.Apply(OpDiv, 3, 1, 2, 0) // a full 200-bit mantissa
	st.SetFloat64(2, 0x1p-6)
	for _, op := range []Op{OpAdd, OpSub, OpMul, OpDiv, OpFMA, OpSqrt, OpFloor, OpMod,
		OpSin, OpCos, OpTan, OpExp, OpLog, OpAtan, OpAsin, OpAcos,
		OpAtan2, OpLog2, OpLog10, OpPow, OpHypot} {
		if n := testing.AllocsPerRun(100, func() { st.Apply(op, 0, 3, 2, 1) }); n != 0 {
			t.Errorf("MPFR-200 store %s allocates %.0f times per call, want 0", op, n)
		}
	}
}

// TestMPFRCellFootprint bounds the heap an MPFR-200 cell costs: the epoch
// GC keeps up to GCEveryNAllocs cells live, so this sets a VM's footprint.
// A cell is one header word and four mantissa words, 40 bytes; a Float
// header with a separate mantissa slab took 72.
func TestMPFRCellFootprint(t *testing.T) {
	const n = 100_000
	st := StoreFor(NewMPFR(200), nil)
	st.SetFloat64(0, 1.0/3)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for k := uint64(0); k < n; k++ {
		st.Move(KeyCell(k), 0)
		st.SetFloat64(0, float64(k))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(st)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("an MPFR-200 cell costs %.1f bytes of heap", per)
	if per > 41 {
		t.Errorf("an MPFR-200 cell costs %.1f bytes of heap, want at most 41", per)
	}
}

// BenchmarkMPFRStoreBox is one emulated MPFR-200 multiply as the VM boxes
// it: two doubles promoted into scratch cells, the product into the result
// cell, and the result moved into a new key cell. Every storeEpoch
// iterations it starts a fresh store, as each one-shot run does, so the
// cost of growing the cell table is counted and the heap stays bounded.
func BenchmarkMPFRStoreBox(b *testing.B) {
	const storeEpoch = 1 << 17
	sys := NewMPFR(200)
	var st Store
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := uint64(i % storeEpoch)
		if k == 0 {
			st = StoreFor(sys, nil)
		}
		st.SetFloat64(0, 1.0/3)
		st.SetFloat64(1, float64(i))
		st.Apply(OpMul, NumScratch-1, 0, 1, 0)
		st.Move(KeyCell(k), NumScratch-1)
	}
}
