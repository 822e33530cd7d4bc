package fpvm

import (
	"testing"

	"fpvm/internal/arith"
	"fpvm/internal/asm"
	"fpvm/internal/machine"
)

// TestVanillaTrapLoopAllocatesOnlyBoxes gates the engine around the
// arithmetic: once a VM has run a program and been reattached to the reset
// machine, a Vanilla trap-and-emulate loop allocates no more than the
// float64 values arith.Vanilla boxes into arith.Value interfaces (one per
// promoted operand and one per result). Delivery, decode, bind, NaN-boxing
// and the arena allocate nothing.
func TestVanillaTrapLoopAllocatesOnlyBoxes(t *testing.T) {
	prog := asm.MustAssemble(`
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
	`)
	m, err := machine.New(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{System: arith.Vanilla{}}
	vm := Attach(m, cfg)
	if err := m.Run(0); err != nil { // warm-up: decode cache and arena grow here
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := m.Reset(m.Image(), nil, 0); err != nil {
			t.Fatal(err)
		}
		vm.Reattach(m, cfg)
		if err := m.Run(0); err != nil {
			t.Fatal(err)
		}
	})
	if m.Stats.FPTraps < 1000 {
		t.Fatalf("FPTraps = %d, want at least 1000: the loop did not trap", m.Stats.FPTraps)
	}
	boxes := vm.Stats.Promotions + vm.Stats.Emulated
	if allocs > float64(boxes) {
		t.Errorf("a warm run allocates %.0f times for %d FP traps; arith.Vanilla boxes only %d values",
			allocs, m.Stats.FPTraps, boxes)
	}
}
