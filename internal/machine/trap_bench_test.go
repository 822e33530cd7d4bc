package machine_test

import (
	"testing"

	"fpvm/internal/arith"
	"fpvm/internal/asm"
	"fpvm/internal/fpvm"
	"fpvm/internal/machine"
)

// BenchmarkTrapDelivery measures Vanilla trap-and-emulate of one divsd site:
// one iteration is a trip around a three-instruction loop whose divide traps
// (PE) and is delivered, decoded (cache hit), bound, emulated and NaN-boxed
// by FPVM. It reports 0 allocs/op: the operands and the result live in the
// VM's float64 cells (the bytes/op left are the arena and cell tables
// growing, one chunk per 1024 results, since no GC pass runs).
func BenchmarkTrapDelivery(b *testing.B) {
	benchTrapDelivery(b, arith.Vanilla{})
}

// BenchmarkTrapDeliveryMPFR is BenchmarkTrapDelivery under MPFR-200: the
// divide computes into the VM's mpfr.Float cells, so it too reports
// 0 allocs/op (the bytes/op are the cell table growing, one chunk of 1024
// Floats and their mantissas per 1024 results).
func BenchmarkTrapDeliveryMPFR(b *testing.B) {
	benchTrapDelivery(b, arith.NewMPFR(200))
}

func benchTrapDelivery(b *testing.B, sys arith.System) {
	m, err := machine.New(asm.MustAssemble(`
		movsd f1, =3.0
	loop:
		movsd f0, =1.0
		divsd f0, f1
		jmp loop
	`), nil)
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
	if err := m.Step(); err != nil { // the constant load before the loop
		b.Fatal(err)
	}
	trip() // warm the decode cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trip()
	}
	b.StopTimer()
	if want := uint64(b.N) + 1; m.Stats.FPTraps != want {
		b.Fatalf("FPTraps = %d, want %d: the divide did not trap every trip", m.Stats.FPTraps, want)
	}
}
