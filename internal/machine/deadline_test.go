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
	cancel.Store(true) // pre-fired: the run must stop at the first checkpoint
	m.Preempt = &cancel
	m.PreemptEvery = 1000

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
	if got := m.Stats.Instructions; got < 1000 || got >= 2000 {
		t.Errorf("stopped after %d instructions, want within [1000, 2000): exactly one checkpoint window", got)
	}
	if de.RIP != m.RIP {
		t.Errorf("DeadlineError.RIP = %#x, machine RIP = %#x", de.RIP, m.RIP)
	}
}

// TestDeadlineHarvestsLikeBudget pins the deadline lattice to the budget
// lattice: with the checkpoint interval equal to the instruction budget and a
// pre-fired flag, both mechanisms stop at the same instruction boundary with
// bit-identical machine state — a serving layer can treat the two
// truncations interchangeably.
func TestDeadlineHarvestsLikeBudget(t *testing.T) {
	const n = 5000

	budget := newLoopMachine(t)
	berr := budget.Run(n)
	var be *BudgetError
	if !errors.As(berr, &be) {
		t.Fatalf("budget run = %v, want *BudgetError", berr)
	}

	deadline := newLoopMachine(t)
	var cancel atomic.Bool
	cancel.Store(true)
	deadline.Preempt = &cancel
	deadline.PreemptEvery = n
	derr := deadline.Run(0)
	var de *DeadlineError
	if !errors.As(derr, &de) {
		t.Fatalf("deadline run = %v, want *DeadlineError", derr)
	}

	if budget.Stats.Instructions != deadline.Stats.Instructions {
		t.Errorf("instructions: budget %d vs deadline %d", budget.Stats.Instructions, deadline.Stats.Instructions)
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

// TestDeadlineUnfiredIsFree pins that arming the flag without firing it
// perturbs nothing: same halt, same cycles, same stats as an unarmed run.
func TestDeadlineUnfiredIsFree(t *testing.T) {
	src := `
	mov r0, $0
	mov r1, $0
loop:
	inc r0
	add r1, r0
	cmp r0, $20000
	jl loop
	outi r1
	halt
`
	runOnce := func(armed bool) *Machine {
		prog, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("assemble: %v", err)
		}
		var out bytes.Buffer
		m, err := New(prog, &out)
		if err != nil {
			t.Fatalf("new machine: %v", err)
		}
		if armed {
			var cancel atomic.Bool
			m.Preempt = &cancel
			m.PreemptEvery = 100 // aggressive checkpointing, never fired
		}
		if err := m.Run(0); err != nil {
			t.Fatalf("run(armed=%v): %v", armed, err)
		}
		return m
	}
	plain, armed := runOnce(false), runOnce(true)
	if plain.Cycles != armed.Cycles {
		t.Errorf("cycles: unarmed %d vs armed-unfired %d", plain.Cycles, armed.Cycles)
	}
	if plain.Stats.Instructions != armed.Stats.Instructions {
		t.Errorf("instructions: unarmed %d vs armed-unfired %d", plain.Stats.Instructions, armed.Stats.Instructions)
	}
	if !armed.Halted() {
		t.Error("armed-unfired run did not halt")
	}
}

// TestResetClearsPreemption pins that a pooled machine does not inherit the
// previous session's deadline: Reset must drop the flag and interval.
func TestResetClearsPreemption(t *testing.T) {
	m := newLoopMachine(t)
	var cancel atomic.Bool
	cancel.Store(true)
	m.Preempt = &cancel
	m.PreemptEvery = 64
	if err := m.Run(0); err == nil {
		t.Fatal("expected a deadline truncation")
	}
	if err := m.Reset(m.Image(), m.Out, 0); err != nil {
		t.Fatalf("reset: %v", err)
	}
	if m.Preempt != nil || m.PreemptEvery != 0 {
		t.Errorf("Reset kept preemption state: Preempt=%v PreemptEvery=%d", m.Preempt, m.PreemptEvery)
	}
	// The reused machine must now run to its budget, not the stale deadline.
	err := m.Run(500)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("post-reset run = %v, want *BudgetError", err)
	}
}
