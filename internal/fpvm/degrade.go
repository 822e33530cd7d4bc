// Graceful degradation: the runtime's escape hatch. §4.1–4.2 of the paper
// guarantee that any NaN-boxed value can always be demoted back to an IEEE
// double and any instruction re-executed natively, so the VM can survive
// anything it cannot (or should not) emulate. This file implements that
// guarantee as a first-class engine: every emulation-path failure — an
// unsupported instruction form reaching the decoder, a bind failure, the
// shadow arena hitting its hard cap, or an injected fault — is classified,
// the frame's operands are demoted in place with the existing demote
// machinery, the instruction is re-executed natively with masked IEEE
// semantics (machine.ExecMasked), and the run continues.
package fpvm

import (
	"errors"
	"fmt"

	"fpvm/internal/isa"
	"fpvm/internal/machine"
	"fpvm/internal/telemetry"
)

// DegradeCause re-exports the telemetry cause taxonomy under the engine that
// produces it.
type DegradeCause = telemetry.DegradeCause

// errInjected marks failures manufactured by the fault injector.
var errInjected = errors.New("injected fault")

// errArenaFull marks a shadow allocation refused at the arena hard cap.
var errArenaFull = errors.New("shadow arena hard cap reached")

// degradeError is the typed fault that flows from an emulation-path seam to
// the degradation engine. Only this error class degrades; every other error
// (bad guest memory, bad opcode) propagates as a machine fault, exactly as
// native execution would die.
type degradeError struct {
	cause DegradeCause
	err   error
}

func (e *degradeError) Error() string {
	return fmt.Sprintf("fpvm: degradable %s fault: %v", e.cause, e.err)
}

func (e *degradeError) Unwrap() error { return e.err }

// degradeFault wraps err as a degradable fault with the given cause.
func degradeFault(cause DegradeCause, err error) error {
	return &degradeError{cause: cause, err: err}
}

// asDegrade classifies err, returning its cause when it is degradable.
func asDegrade(err error) (DegradeCause, bool) {
	var de *degradeError
	if errors.As(err, &de) {
		return de.cause, true
	}
	return 0, false
}

// degrade is the engine: demote every NaN-boxed operand of in back to IEEE
// doubles, re-execute the instruction natively with masked semantics, record
// the event, and let the run continue. RIP advances past in (ExecMasked
// retires it), so the caller's delivery accounting is unchanged: the
// degraded instruction retires exactly like an emulated one.
func (vm *VM) degrade(m *machine.Machine, in *isa.Inst, idx int, cause DegradeCause) error {
	vm.Stats.Degradations++
	if int(cause) < len(vm.Stats.DegradeByCause) {
		vm.Stats.DegradeByCause[cause]++
	}
	if t := m.Telem; t != nil {
		vm.telemPC = in.Addr
		t.Degradation(idx, in.Addr, in.Op, cause, m.Cycles)
	}
	for i := range in.Ops {
		if err := vm.demoteOperand(m, &in.Ops[i], in.Op.IsPacked()); err != nil {
			return err
		}
	}
	return m.ExecMasked(idx)
}
