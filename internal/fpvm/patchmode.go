package fpvm

// PatchAllFPArith converts every FP arithmetic site of the loaded program
// from trap-and-emulate to trap-and-patch (§3.2): trap-and-emulate without
// the delivery. Each site carries the VM's patch handler, which checks the
// instruction on its current operands. When it would raise no unmasked event
// (no rounding, overflow, NaN, and no NaN-boxed input, which is a signalling
// NaN and raises IE), the instruction retires natively at patch cost;
// otherwise the handler enters a trace there exactly as a delivered trap
// would, so sequence emulation and the JIT apply unchanged (trace.go).
func (vm *VM) PatchAllFPArith() {
	for _, in := range vm.M.Insts() {
		if in.Op.IsFPArith() {
			vm.M.SetPatch(in.Addr, vm.patchFn)
		}
	}
}
