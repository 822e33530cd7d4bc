package machine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"fpvm/internal/asm"
)

// dispatchForms are the instruction forms that dominate native retirement
// (NAS IS spends over 90% of its instructions in them), one straight-line
// body line each; %d is the line number, for forms that need a label.
var dispatchForms = []struct{ name, line string }{
	{"add", "add r0, $1"},
	{"load", "mov r1, [r2]"},
	{"store", "mov [r2], r1"},
	{"inc", "inc r1"},
	{"and", "and r1, $255"},
	{"cmp-jl", "cmp r1, $1\n\tjl l%d\nl%d:"},
}

// dispatchProg is a loop over a long straight-line body of one form, giving
// the fetch path a code footprint comparable to the real workloads while
// keeping the back-end cheap so dispatch overhead dominates.
func dispatchProg(line string) string {
	var sb strings.Builder
	sb.WriteString(".data\ncell: .i64 0\n.text\n\tmov r0, $0\n\tmov r2, &cell\nloop:\n")
	for i := 0; i < 1500; i++ {
		sb.WriteString("\t")
		if strings.Contains(line, "%d") {
			fmt.Fprintf(&sb, line, i, i)
		} else {
			sb.WriteString(line)
		}
		sb.WriteString("\n")
	}
	sb.WriteString("\tcmp r0, $1000000000\n\tjl loop\n\thalt\n")
	return sb.String()
}

// BenchmarkStepDispatch measures one Step of each hot form on the dense
// predecoded pipeline: fetch, the predecoded charge and class, and the
// form's inline arm.
func BenchmarkStepDispatch(b *testing.B) {
	for _, f := range dispatchForms {
		b.Run(f.name, func(b *testing.B) {
			m, err := New(asm.MustAssemble(dispatchProg(f.line)), nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunDispatch measures Run over the same programs: one op is one
// retired instruction of the form, run inside the dispatch loop rather than
// one Step call per instruction.
func BenchmarkRunDispatch(b *testing.B) {
	for _, f := range dispatchForms {
		b.Run(f.name, func(b *testing.B) {
			m, err := New(asm.MustAssemble(dispatchProg(f.line)), nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := m.Run(uint64(b.N)); !errors.As(err, new(*BudgetError)) {
				b.Fatalf("Run(%d) = %v, want the budget exhausted", b.N, err)
			}
		})
	}
}

// TestHotFormStepsAllocateNothing gates what BenchmarkStepDispatch reports:
// a Step of any hot form allocates nothing.
func TestHotFormStepsAllocateNothing(t *testing.T) {
	for _, f := range dispatchForms {
		m, err := New(asm.MustAssemble(dispatchProg(f.line)), nil)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(1000, func() {
			if err := m.Step(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: a Step allocates %.1f times, want 0", f.name, allocs)
		}
	}
}
