package fpvm

import "fpvm/internal/machine"

// PatchAllFPArith converts every FP arithmetic site of the loaded program
// from trap-and-emulate to trap-and-patch (§3.2): trap-and-emulate without
// the delivery. Each site is replaced by an inline patch whose handler
// checks the instruction on its current operands. When it would raise no
// unmasked event (no rounding, overflow, NaN, and no NaN-boxed input, which
// is a signalling NaN and raises IE), the instruction retires natively at
// patch cost; otherwise the handler runs it through the trace executor,
// still avoiding trap delivery.
func (vm *VM) PatchAllFPArith() {
	for _, in := range vm.M.Insts() {
		if in.Op.IsFPArith() {
			vm.M.SetPatch(in.Addr, vm.patchSiteHandler)
		}
	}
}

// patchSiteHandler is the handler of a patched site. It applies the trace
// entry contract sbHandler applies: a site that would not trap on this visit
// retires natively (handled=false); one that would is counted as a trap and
// runs as a one-step uncached trace, which owns the per-step attribution and
// the degrade-and-cut path.
func (vm *VM) patchSiteHandler(f *machine.TrapFrame) (bool, error) {
	m := f.M
	if !m.WouldTrap(f.Idx) {
		return false, nil
	}
	vm.Stats.Traps++
	if _, _, err := vm.runTrace(m, &trace{entry: f.Idx, n: 1}); err != nil {
		return false, err
	}
	vm.maybeGC()
	return true, nil
}
