package fpvm

import (
	"testing"

	"fpvm/internal/arith"
	"fpvm/internal/asm"
	"fpvm/internal/machine"
)

// warmTrapLoopAllocs runs prog once under sys to warm the VM (decode cache,
// arena and shadow cells grow here), then reports how many allocations a
// run allocates after the machine is reset and the VM reattached, and the
// number of FP traps per run.
func warmTrapLoopAllocs(t *testing.T, src string, sys arith.System) (allocs float64, traps uint64) {
	t.Helper()
	m, err := machine.New(asm.MustAssemble(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{System: sys}
	vm := Attach(m, cfg)
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(5, func() {
		if err := m.Reset(m.Image(), nil, 0); err != nil {
			t.Fatal(err)
		}
		vm.Reattach(m, cfg)
		if err := m.Run(0); err != nil {
			t.Fatal(err)
		}
	})
	return allocs, m.Stats.FPTraps
}

// TestVanillaTrapLoopAllocatesNothing gates the whole trap-and-emulate path
// under Vanilla: once a VM has run a program and been reattached to the
// reset machine, delivery, decode, bind, promotion, the float64 cells,
// NaN-boxing and the arena allocate nothing.
func TestVanillaTrapLoopAllocatesNothing(t *testing.T) {
	allocs, traps := warmTrapLoopAllocs(t, `
		mov r0, $0
		movsd f1, =3.0
	loop:
		movsd f0, =1.0
		divsd f0, f1     ; traps (PE) every iteration
		addsd f2, f0
		inc r0
		cmp r0, $500
		jl loop
		halt
	`, arith.Vanilla{})
	if traps < 1000 {
		t.Fatalf("FPTraps = %d, want at least 1000: the loop did not trap", traps)
	}
	if allocs != 0 {
		t.Errorf("a warm Vanilla run of %d FP traps allocates %.0f times, want 0", traps, allocs)
	}
}

// TestMPFRTrapLoopAllocatesNothing is the same gate under MPFR-200: after a
// Reattach, add, mul, div, sqrt, fmod and a transcendental (fatan) compute
// into the mpfr.Float cells (and fmod's scratch) the first run grew, with
// fatan's temporaries on the stack, so a warm run allocates nothing.
func TestMPFRTrapLoopAllocatesNothing(t *testing.T) {
	allocs, traps := warmTrapLoopAllocs(t, `
		mov r0, $0
		movsd f1, =3.0
		movsd f3, =1.5
	loop:
		movsd f0, =1.0
		divsd f0, f1     ; traps (PE): a boxed quotient
		addsd f2, f0     ; a boxed operand traps every op below
		mulsd f3, f0
		sqrtsd f4, f0
		fmod f5, f0, f1
		fatan f6, f0
		inc r0
		cmp r0, $500
		jl loop
		halt
	`, arith.NewMPFR(200))
	if traps < 2000 {
		t.Fatalf("FPTraps = %d, want at least 2000: the loop did not trap", traps)
	}
	if allocs != 0 {
		t.Errorf("a warm MPFR-200 run of %d FP traps allocates %.0f times, want 0", traps, allocs)
	}
}
