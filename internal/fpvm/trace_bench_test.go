package fpvm

import (
	"testing"

	"fpvm/internal/arith"
	"fpvm/internal/asm"
	"fpvm/internal/machine"
)

// BenchmarkTraceEntry measures a warm cached-trace hit under Vanilla: one
// iteration is a trip around a four-instruction loop whose divide is the
// entry of a compiled superblock [divsd, movsd]. The patch dispatch runs the
// entry check (Machine.WouldTrap), then the trace executor retires both
// thunks. It reports 0 allocs/op: the operands and the result live in the
// VM's float64 cells.
func BenchmarkTraceEntry(b *testing.B) {
	m, err := machine.New(asm.MustAssemble(`
		movsd f1, =3.0
	loop:
		movsd f0, =1.0
		divsd f0, f1     ; traps (PE) every trip: the trace entry
		movsd f2, f0
		jmp loop
	`), nil)
	if err != nil {
		b.Fatal(err)
	}
	Attach(m, Config{System: arith.Vanilla{}, JITThreshold: 1})
	trip := func() {
		for i := 0; i < 3; i++ { // movsd, the superblock (divsd + movsd), jmp
			if err := m.Step(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := m.Step(); err != nil { // the constant load before the loop
		b.Fatal(err)
	}
	// Warm up: the first divide traps and compiles the trace. Step until the
	// trace has run once and execution is back at the loop head.
	for m.Stats.SBHits == 0 {
		if err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
	for m.Insts()[1].Addr != m.RIP {
		if err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
	hits := m.Stats.SBHits
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trip()
	}
	b.StopTimer()
	if got := m.Stats.SBHits - hits; got != uint64(b.N) {
		b.Fatalf("%d superblock hits in %d trips: the cached trace did not run every trip", got, b.N)
	}
}
