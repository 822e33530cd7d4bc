// Graceful degradation: the runtime's escape hatch. §4.1–4.2 of the paper
// guarantee that any NaN-boxed value can always be demoted back to an IEEE
// double and any instruction re-executed natively, so the VM can survive
// anything it cannot (or should not) emulate. This file implements that
// guarantee as a first-class engine: every emulation-path failure — an
// unsupported instruction form reaching the decoder, a bind failure, the
// shadow arena hitting its hard cap, or an injected fault — is classified,
// the frame's operands are demoted in place with the existing demote
// machinery, the instruction is re-executed natively with masked IEEE
// semantics (machine.ExecMasked), and the run continues. The same engine
// powers the trap-storm governor: a site whose trap rate crosses
// Config.StormThreshold is degraded once and then blacklisted with a
// demote-and-stay-native patch, so a pathological hot site pays one
// degradation instead of unbounded trap deliveries (the storms FlowFPX
// instruments and FPSpy's individual-instruction mode was built to survive).
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

// errStorm marks the delivery on which a site crossed the storm threshold.
var errStorm = errors.New("trap-storm threshold crossed")

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
func (vm *VM) degrade(m *machine.Machine, in isa.Inst, idx int, cause DegradeCause) error {
	vm.Stats.Degradations++
	if int(cause) < len(vm.Stats.DegradeByCause) {
		vm.Stats.DegradeByCause[cause]++
	}
	if t := m.Telem; t != nil {
		vm.telemPC = in.Addr
		t.Degradation(idx, in.Addr, in.Op, cause, m.Cycles)
	}
	for _, o := range in.Ops {
		if err := vm.demoteOperand(m, o, in.Op.IsPacked()); err != nil {
			return err
		}
	}
	return m.ExecMasked(in)
}

// --- Trap-storm governor -----------------------------------------------------

// stormDecayShift sets the hysteresis window: every StormThreshold<<shift
// FP-trap deliveries, all per-site counters halve. A site must therefore
// sustain its trap rate to cross the threshold — slow background accumulation
// over a long run decays away instead of eventually blacklisting a site that
// was never hot.
const stormDecayShift = 3

// noteStorm accounts one FP-trap delivery at the site idx and reports whether
// the site just crossed the storm threshold. On crossing, the site is
// blacklisted: a demote-and-stay-native patch is installed so subsequent
// visits execute at patch-check cost with no delivery and no promotion.
func (vm *VM) noteStorm(m *machine.Machine, idx int, in *isa.Inst) bool {
	vm.stormTick++
	if vm.stormTick >= vm.cfg.StormThreshold<<stormDecayShift {
		vm.stormTick = 0
		for i := range vm.stormCounts {
			vm.stormCounts[i] >>= 1
		}
	}
	if idx < 0 || idx >= len(vm.stormCounts) || vm.stormPatched[idx] {
		return false
	}
	vm.stormCounts[idx]++
	if uint64(vm.stormCounts[idx]) < vm.cfg.StormThreshold {
		return false
	}
	vm.stormPatched[idx] = true
	vm.Stats.StormPatches++
	m.SetPatch(in.Addr, vm.stormPatchHandler)
	if t := m.Telem; t != nil {
		t.StormPatch(idx, in.Addr, in.Op, uint64(vm.stormCounts[idx]), m.Cycles)
	}
	return true
}

// stormPatchHandler services a blacklisted site: demote whatever boxes other
// sites pushed into its operands, then execute natively masked. The site
// never promotes again — the per-site analog of FPSpy's "individual
// instruction mode" giving up on an instruction that traps too much.
func (vm *VM) stormPatchHandler(f *machine.TrapFrame) (bool, error) {
	vm.Stats.StormNative++
	if f.M.Telem != nil {
		vm.telemPC = f.Inst.Addr
	}
	for _, o := range f.Inst.Ops {
		if err := vm.demoteOperand(f.M, o, f.Inst.Op.IsPacked()); err != nil {
			return false, err
		}
	}
	if err := f.M.ExecMasked(f.Inst); err != nil {
		return false, err
	}
	return true, nil
}
