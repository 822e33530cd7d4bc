package machine

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"fpvm/internal/asm"
	"fpvm/internal/isa"
)

// resetProg is a small program that dirties registers, memory, and output.
func resetProg(t *testing.T) *isa.Program {
	t.Helper()
	prog, err := asm.Assemble(`
.data
x: .f64 1.5
.text
	mov r1, $7
	movsd f1, [x]
	addsd f1, =2.25
	movsd [x], f1
	outi r1
	halt
`)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// otherProg has a different shape (code length, data) than resetProg.
func otherProg(t *testing.T) *isa.Program {
	t.Helper()
	prog, err := asm.Assemble(`
	mov r2, $99
	mov r3, $3
	add r2, r3
	outi r2
	halt
`)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestResetMatchesFresh pins the machine-layer reset invariant: after
// Reset, every observable — registers, flags, MXCSR, memory, stats, cost
// model, hooks — matches a freshly constructed machine, and a subsequent run
// is bit-identical.
func TestResetMatchesFresh(t *testing.T) {
	prog := resetProg(t)

	var out1 bytes.Buffer
	m, err := NewSized(prog, &out1, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty every category of state a previous session could leave behind.
	m.FPTrap = func(*TrapFrame) error { return nil }
	m.TrapOnNaNLoad = true
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	firstOut, firstCycles := out1.String(), m.Cycles

	var out2 bytes.Buffer
	if err := m.Reset(m.Image(), &out2, 64<<10); err != nil {
		t.Fatal(err)
	}

	var fout bytes.Buffer
	fresh, err := NewSized(prog, &fout, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if m.R != fresh.R || m.F != fresh.F || m.Flags != fresh.Flags {
		t.Error("Reset left register or flag state behind")
	}
	if m.MXCSR != fresh.MXCSR || m.Cycles != 0 || m.RIP != fresh.RIP {
		t.Error("Reset left control state behind")
	}
	if !bytes.Equal(m.Mem, fresh.Mem) {
		t.Error("Reset left memory bytes behind")
	}
	if m.FPTrap != nil || m.TrapOnNaNLoad {
		t.Error("Reset left hooks installed")
	}
	if m.Stats.Instructions != 0 || m.Stats.TrapByFlag != (Stats{}).TrapByFlag {
		t.Errorf("Reset left stats behind: %+v", m.Stats)
	}

	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if out2.String() != firstOut || m.Cycles != firstCycles {
		t.Errorf("re-run after Reset diverged: output %q vs %q, cycles %d vs %d",
			out2.String(), firstOut, m.Cycles, firstCycles)
	}
}

// TestResetRebindsNewProgram pins the Load path of Reset: a different
// program image replaces the old one completely.
func TestResetRebindsNewProgram(t *testing.T) {
	progA, progB := resetProg(t), otherProg(t)
	var out bytes.Buffer
	m, err := NewSized(progA, &out, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := m.Reset(mustImage(t, progB), &out, 64<<10); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	fresh, err := NewSized(progB, &ref, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Run(0); err != nil {
		t.Fatal(err)
	}
	if out.String() != ref.String() || m.Cycles != fresh.Cycles {
		t.Errorf("rebound program diverged from fresh machine: output %q vs %q, cycles %d vs %d",
			out.String(), ref.String(), m.Cycles, fresh.Cycles)
	}
}

// TestResetSameProgramSkipsNothingObservable pins that reloading the
// machine's own image (no predecode) is behaviorally invisible.
func TestResetSameProgramSkipsNothingObservable(t *testing.T) {
	prog := resetProg(t)
	var out bytes.Buffer
	m, err := NewSized(prog, &out, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	want := out.String()
	for i := 0; i < 3; i++ {
		out.Reset()
		if err := m.Reset(m.Image(), &out, 64<<10); err != nil {
			t.Fatal(err)
		}
		if err := m.Run(0); err != nil {
			t.Fatal(err)
		}
		if out.String() != want {
			t.Fatalf("fast-path reset %d diverged: %q vs %q", i, out.String(), want)
		}
	}
}

// TestResetGeometryChange pins memory resizing through Reset and the
// too-small error path.
func TestResetGeometryChange(t *testing.T) {
	prog := resetProg(t)
	m, err := NewSized(prog, &bytes.Buffer{}, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Reset(m.Image(), &bytes.Buffer{}, 128<<10); err != nil {
		t.Fatal(err)
	}
	if len(m.Mem) != 128<<10 {
		t.Errorf("memory not resized: %d bytes", len(m.Mem))
	}
	if int64(len(m.Mem)) != m.R[isa.RegSP] {
		t.Errorf("stack pointer %d not at top of resized memory %d", m.R[isa.RegSP], len(m.Mem))
	}
	if err := m.Reset(m.Image(), &bytes.Buffer{}, 0); err != nil || len(m.Mem) != DefaultMemSize {
		t.Errorf("Reset with size 0: %v, %d bytes, want the default %d, as NewFromImage", err, len(m.Mem), DefaultMemSize)
	}
	if err := m.Reset(m.Image(), &bytes.Buffer{}, 1<<10); err == nil {
		t.Error("Reset accepted memory too small for the data segment")
	}
}

// TestBudgetError pins the typed quota error: harvestable, matchable with
// errors.As, and still matching the degradation engine's textual contract.
func TestBudgetError(t *testing.T) {
	prog := resetProg(t)
	m, err := NewSized(prog, &bytes.Buffer{}, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	runErr := m.Run(2)
	if runErr == nil {
		t.Fatal("2-instruction budget did not stop the run")
	}
	var be *BudgetError
	if !errors.As(runErr, &be) {
		t.Fatalf("budget stop is %T, want *BudgetError", runErr)
	}
	if be.Budget != 2 {
		t.Errorf("BudgetError.Budget = %d, want 2", be.Budget)
	}
	if !strings.Contains(runErr.Error(), "budget") {
		t.Errorf("budget error text %q must contain \"budget\"", runErr.Error())
	}
	if m.Stats.Instructions != 2 {
		t.Errorf("budget stop retired %d instructions, want 2", m.Stats.Instructions)
	}
}
