package fpvm

import (
	"math"

	"fpvm/internal/arith"
	"fpvm/internal/machine"
	"fpvm/internal/nanbox"
)

// EnablePatchMode converts the given FP instruction sites from
// trap-and-emulate to trap-and-patch (§3.2): each site is replaced by an
// inline patch whose custom handler performs a precondition check (are any
// inputs NaN-boxed?) and a postcondition check (did the native result
// round, overflow, underflow, or produce a NaN?). When both checks pass,
// the original instruction's effect is applied at patch cost — no hardware
// trap. When either fails, the handler calls directly into FPVM's
// decode/bind/emulate internals, still avoiding trap delivery.
func (vm *VM) EnablePatchMode(addrs []uint64) {
	for _, a := range addrs {
		vm.M.SetPatch(a, vm.patchSiteHandler)
	}
}

// PatchAllFPArith installs patches on every FP arithmetic site in the
// loaded program, the full trap-and-patch configuration.
func (vm *VM) PatchAllFPArith() {
	var addrs []uint64
	for _, in := range vm.M.Insts() {
		if in.Op.IsFPArith() {
			addrs = append(addrs, in.Addr)
		}
	}
	vm.EnablePatchMode(addrs)
}

// patchSiteHandler is the generated custom handler for a patched site. A
// degradable fault anywhere on its emulation path falls back to the
// graceful-degradation engine, same as the trap handler.
func (vm *VM) patchSiteHandler(f *machine.TrapFrame) (bool, error) {
	if vm.inject != nil {
		vm.injectPC = f.Inst.Addr
	}
	d, err := vm.decode(f.Idx, f.Inst)
	if err != nil {
		return vm.patchDegrade(f, err)
	}

	// Precondition: no NaN-boxed (or NaN) inputs.
	boxed := false
	for _, s := range d.srcs {
		for lane := 0; lane < d.lanes; lane++ {
			bits, err := f.M.ReadOperandFP(s, lane)
			if err != nil {
				return false, err
			}
			if nanbox.IsBoxed(bits) {
				boxed = true
			}
		}
	}

	if !boxed && d.kind == kindArith {
		// Execute the embedded original instruction natively and run the
		// postcondition check on the FPU flags.
		if ok, err := vm.tryNative(f, d); err != nil {
			return false, err
		} else if ok {
			return true, nil
		}
	}

	// Check failed: invoke FPVM internals directly (no trap delivery).
	vm.Stats.Traps++
	if err := vm.bind(d); err != nil {
		return vm.patchDegrade(f, err)
	}
	if err := vm.emulate(f.M, d); err != nil {
		return vm.patchDegrade(f, err)
	}
	if vm.Arena.Allocs()-vm.lastGC >= vm.gcEvery {
		vm.RunGC()
	}
	return true, nil
}

// patchDegrade routes a patched-site failure through the degradation engine
// when it is degradable, and propagates it as a machine fault otherwise.
func (vm *VM) patchDegrade(f *machine.TrapFrame, err error) (bool, error) {
	cause, ok := asDegrade(err)
	if !ok {
		return false, err
	}
	if derr := vm.degrade(f.M, f.Inst, f.Idx, cause); derr != nil {
		return false, derr
	}
	return true, nil
}

// tryNative executes an arithmetic instruction in IEEE doubles; it reports
// ok=false (without side effects) if any postcondition event fired.
func (vm *VM) tryNative(f *machine.TrapFrame, d *decodedInst) (bool, error) {
	var results [2]uint64
	for lane := 0; lane < d.lanes; lane++ {
		var x [3]float64
		for i, s := range d.srcs {
			bits, err := f.M.ReadOperandFP(s, lane)
			if err != nil {
				return false, err
			}
			x[i] = math.Float64frombits(bits)
		}
		r := arith.Float64Op(d.aop, x[0], x[1], x[2])
		if r.Flags != 0 {
			return false, nil // postcondition failed: emulate instead
		}
		results[lane] = math.Float64bits(r.Value)
	}
	for lane := 0; lane < d.lanes; lane++ {
		if err := f.M.WriteOperandFP(d.dst, lane, results[lane]); err != nil {
			return false, err
		}
	}
	f.M.Advance(d.inst)
	return true, nil
}
