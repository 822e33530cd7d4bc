package machine

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"

	"fpvm/internal/asm"
)

// loopSrc is an unbounded counting loop: without a budget or a deadline it
// runs forever, which is exactly the guest a preemption checkpoint exists to
// unstick.
const loopSrc = `
	mov r0, $0
loop:
	inc r0
	jmp loop
`

func newLoopMachine(t *testing.T) *Machine {
	t.Helper()
	prog, err := asm.Assemble(loopSrc)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	var out bytes.Buffer
	m, err := New(prog, &out)
	if err != nil {
		t.Fatalf("new machine: %v", err)
	}
	return m
}

func TestDeadlinePreemptsUnboundedRun(t *testing.T) {
	m := newLoopMachine(t)
	var cancel atomic.Bool
	m.Preempt = &cancel

	// Cross three checkpoints unfired, then fire: the run must stop at the
	// next checkpoint, one full interval later.
	const every = DefaultPreemptEvery
	var be *BudgetError
	if err := m.Run(3*every + 7); !errors.As(err, &be) {
		t.Fatalf("unfired run = %v, want *BudgetError", err)
	}
	cancel.Store(true)
	err := m.Run(0) // unlimited budget: only the deadline can stop this guest
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("Run = %v, want *DeadlineError", err)
	}
	if m.Halted() {
		t.Error("preempted machine reports halted")
	}
	if de.Instructions != m.Stats.Instructions {
		t.Errorf("DeadlineError.Instructions = %d, Stats.Instructions = %d", de.Instructions, m.Stats.Instructions)
	}
	if got, want := m.Stats.Instructions, uint64(4*every+7); got != want {
		t.Errorf("stopped after %d instructions, want %d: one checkpoint window after the fire", got, want)
	}
	if de.RIP != m.RIP {
		t.Errorf("DeadlineError.RIP = %#x, machine RIP = %#x", de.RIP, m.RIP)
	}
}

// TestDeadlineHarvestsLikeBudget pins the deadline lattice to the budget
// lattice: a flag fired after several checkpoints and an instruction budget
// ending at the checkpoint it is observed at stop at the same instruction
// boundary with bit-identical machine state — a serving layer can treat the
// two truncations interchangeably.
func TestDeadlineHarvestsLikeBudget(t *testing.T) {
	const n = 4 * DefaultPreemptEvery

	budget := newLoopMachine(t)
	berr := budget.Run(n)
	var be *BudgetError
	if !errors.As(berr, &be) {
		t.Fatalf("budget run = %v, want *BudgetError", berr)
	}

	deadline := newLoopMachine(t)
	var cancel atomic.Bool
	deadline.Preempt = &cancel
	if err := deadline.Run(n - DefaultPreemptEvery); !errors.As(err, &be) {
		t.Fatalf("unfired deadline run = %v, want *BudgetError", err)
	}
	cancel.Store(true)
	derr := deadline.Run(0)
	var de *DeadlineError
	if !errors.As(derr, &de) {
		t.Fatalf("deadline run = %v, want *DeadlineError", derr)
	}

	if budget.Stats.Instructions != n || deadline.Stats.Instructions != n {
		t.Errorf("instructions: budget %d, deadline %d, want %d", budget.Stats.Instructions, deadline.Stats.Instructions, n)
	}
	if budget.Cycles != deadline.Cycles {
		t.Errorf("cycles: budget %d vs deadline %d", budget.Cycles, deadline.Cycles)
	}
	if budget.RIP != deadline.RIP {
		t.Errorf("RIP: budget %#x vs deadline %#x", budget.RIP, deadline.RIP)
	}
	if budget.R != deadline.R {
		t.Errorf("integer registers diverged between budget and deadline truncation")
	}
}

// TestResetClearsPreemption pins that a pooled machine does not inherit the
// previous session's deadline: Reset must drop the flag.
func TestResetClearsPreemption(t *testing.T) {
	m := newLoopMachine(t)
	var cancel atomic.Bool
	cancel.Store(true)
	m.Preempt = &cancel
	if err := m.Run(0); err == nil {
		t.Fatal("expected a deadline truncation")
	}
	if err := m.Reset(m.Image(), m.Out, 0); err != nil {
		t.Fatalf("reset: %v", err)
	}
	if m.Preempt != nil {
		t.Errorf("Reset kept the preemption flag")
	}
	// The reused machine must now run to its budget, not the stale deadline.
	err := m.Run(500)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("post-reset run = %v, want *BudgetError", err)
	}
}
