package machine

import (
	"strings"
	"testing"

	"fpvm/internal/asm"
	"fpvm/internal/telemetry"
)

// trapProg is a loop whose body is straight-line FP arithmetic: with every
// MXCSR exception unmasked and a trap handler installed, each addsd delivers
// one trap, so the benchmark time is dominated by deliverTrap — the exact
// path whose telemetry nil-check must stay free.
func trapProg() string {
	var sb strings.Builder
	sb.WriteString("\tmov r0, $0\n\tmovsd f0, =1.5\n\tmovsd f1, =0.25\nloop:\n")
	for i := 0; i < 64; i++ {
		sb.WriteString("\taddsd f0, f1\n")
	}
	sb.WriteString("\tadd r0, $1\n\tcmp r0, $1000000000\n\tjl loop\n\thalt\n")
	return sb.String()
}

func newTrapMachine(b *testing.B) *Machine {
	b.Helper()
	m, err := New(asm.MustAssemble(trapProg()), nil)
	if err != nil {
		b.Fatal(err)
	}
	m.MXCSR.SetMasks(0) // unmask everything, as fpvm.Attach does
	// Minimal emulation handler: clear the sticky flags and retire the
	// faulting instruction, the skeleton of FPVM's enterTrace without the
	// arithmetic back-end, so delivery overhead dominates the measurement.
	m.FPTrap = func(f *TrapFrame) error {
		f.M.MXCSR.ClearFlags()
		f.M.advance(f.Inst)
		return nil
	}
	return m
}

// BenchmarkTelemetryDisabled measures the trap-delivery hot path with no
// collector attached (Telem nil). Comparing against BenchmarkTelemetryEnabled
// gives the cost of the nil check itself; the disabled path must stay within
// noise (≤1%) of the pre-telemetry pipeline.
func BenchmarkTelemetryDisabled(b *testing.B) {
	m := newTrapMachine(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTelemetryEnabled measures the same path with a collector attached:
// two ring records plus one site-table update per delivery.
func BenchmarkTelemetryEnabled(b *testing.B) {
	m := newTrapMachine(b)
	m.Telem = telemetry.NewCollector(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
