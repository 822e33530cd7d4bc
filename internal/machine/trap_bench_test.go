package machine_test

import (
	"testing"

	"fpvm/internal/arith"
	"fpvm/internal/asm"
	"fpvm/internal/fpvm"
	"fpvm/internal/machine"
)

// BenchmarkTrapDelivery measures Vanilla trap-and-emulate, one
// sub-benchmark per machine.TrapForms form: add, mul, div and sqrt, each
// with a promoted register, a NaN-boxed register and a memory source. One
// iteration is a trip around the form's three-instruction loop, whose op
// traps (PE, or IE on a boxed source) and is delivered, decoded (cache
// hit), bound, emulated and NaN-boxed by FPVM. Each reports 0 allocs/op:
// the operands and the result live in the VM's float64 cells (the bytes/op
// left are the arena and cell tables growing, one chunk per 1024 results,
// since no GC pass runs). "div/reg" is the one loop this benchmark timed
// before it had sub-benchmarks.
func BenchmarkTrapDelivery(b *testing.B) {
	for _, fm := range machine.TrapForms() {
		b.Run(fm.Name, func(b *testing.B) {
			benchTrapDelivery(b, fm.Src, fm.Prelude, arith.Vanilla{})
		})
	}
}

// BenchmarkTrapDeliveryMPFR is BenchmarkTrapDelivery under MPFR-200: the
// divide computes into the VM's mpfr.Float cells, so it too reports
// 0 allocs/op (the bytes/op are the cell table growing, one chunk of 1024
// Floats and their mantissas per 1024 results).
func BenchmarkTrapDeliveryMPFR(b *testing.B) {
	benchTrapDelivery(b, `
		movsd f1, =3.0
	loop:
		movsd f0, =1.0
		divsd f0, f1
		jmp loop
	`, 1, arith.NewMPFR(200))
}

// benchTrapDelivery times trips around the three-instruction loop that
// follows prelude instructions of src, under FPVM with sys.
func benchTrapDelivery(b *testing.B, src string, prelude int, sys arith.System) {
	m, err := machine.New(asm.MustAssemble(src), nil)
	if err != nil {
		b.Fatal(err)
	}
	fpvm.Attach(m, fpvm.Config{System: sys})
	trip := func() {
		for i := 0; i < 3; i++ {
			if err := m.Step(); err != nil {
				b.Fatal(err)
			}
		}
	}
	for i := 0; i < prelude; i++ {
		if err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
	base := m.Stats.FPTraps
	trip() // warm the decode cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trip()
	}
	b.StopTimer()
	if want := uint64(b.N) + 1; m.Stats.FPTraps-base != want {
		b.Fatalf("FPTraps = %d, want %d: the op did not trap every trip", m.Stats.FPTraps-base, want)
	}
}
