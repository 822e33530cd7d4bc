package fpvm

import (
	"fpvm/internal/arith"
	"fpvm/internal/faultinject"
	"fpvm/internal/fpu"
	"fpvm/internal/isa"
	"fpvm/internal/machine"
	"fpvm/internal/telemetry"
)

// kindRunners dispatches a decoded instruction to its per-kind emulation
// body. The table is shared by the interpreter (emulate) and the trace-JIT
// tier: a superblock thunk pre-resolves its runner at compile time, so
// re-entry skips the switch along with decode and bind.
var kindRunners = [...]func(*VM, *machine.Machine, *decodedInst) error{
	kindArith:   (*VM).runArith,
	kindCompare: (*VM).runCompare,
	kindToInt:   (*VM).runToInt,
	kindFromInt: (*VM).runFromInt,
	kindMove:    (*VM).runMove,
}

// emulate executes one decoded instruction in the alternative arithmetic
// system and retires it: results are boxed into the destination, compares
// write RFLAGS, conversions cross the IEEE/shadow boundary, and RIP
// advances past the instruction. This is §4.1's emulator: one scalar
// function per abstract operation, invoked once per vector lane. It is
// called both for the faulting instruction of a trap and for every
// instruction coalesced into the same delivery by sequence emulation.
func (vm *VM) emulate(m *machine.Machine, d *decodedInst) error {
	if j := vm.inject; j != nil && j.Fire(faultinject.SeamEmulate, d.inst.Addr) {
		return degradeFault(telemetry.DegradeEmulate, errInjected)
	}
	vm.Stats.Cycles.Emulate += vm.costs.EmulateBase
	m.Cycles += vm.costs.EmulateBase

	if err := kindRunners[d.kind](vm, m, d); err != nil {
		return err
	}
	m.Advance(d.inst)
	return nil
}

// runArith emulates an FP arithmetic instruction: one Sys.Apply per lane,
// results boxed and retired atomically.
func (vm *VM) runArith(m *machine.Machine, d *decodedInst) error {
	// Lane results are buffered and written only after every lane has
	// computed (the same atomic retire the native executor performs), so
	// a degradable fault on lane 1 leaves the destination — which is
	// also a source for binary ops — untouched for the degradation
	// engine's native re-execution.
	err := vm.applyLanes(m, d)
	for lane := 0; err == nil && lane < d.lanes; lane++ {
		err = m.WriteOperandFP(d.dst, lane, vm.pending[lane])
	}
	vm.pending = [2]uint64{}
	return err
}

// applyLanes computes and boxes every lane of an arithmetic instruction into
// vm.pending. The buffer is a GC root (RunGC): lane 1's allocation may run a
// soft-cap GC pass, which must not free lane 0's cell before it is written.
func (vm *VM) applyLanes(m *machine.Machine, d *decodedInst) error {
	for lane := 0; lane < d.lanes; lane++ {
		// The per-VM scratch buffer keeps the hot path allocation-free
		// (the seed allocated a fresh []arith.Value per lane per trap).
		args := vm.scratch[:len(d.srcs)]
		for i, s := range d.srcs {
			bits, err := vm.readFP(m, s, lane)
			if err != nil {
				return err
			}
			args[i] = vm.value(bits)
		}
		res := vm.Sys.Apply(d.aop, args...)
		vm.Stats.Emulated++
		opCycles := vm.Sys.OpCycles(d.aop)
		vm.Stats.Cycles.Emulate += opCycles
		m.Cycles += opCycles
		bits, err := vm.boxResult(res)
		if err != nil {
			return err
		}
		vm.pending[lane] = bits
	}
	return nil
}

// runCompare emulates ucomisd/comisd: the shadow comparison writes RFLAGS.
func (vm *VM) runCompare(m *machine.Machine, d *decodedInst) error {
	abits, err := vm.readFP(m, d.srcs[0], 0)
	if err != nil {
		return err
	}
	bbits, err := vm.readFP(m, d.srcs[1], 0)
	if err != nil {
		return err
	}
	a, b := vm.value(abits), vm.value(bbits)
	vm.Stats.Emulated++
	cmpCycles := vm.Sys.OpCycles(arith.OpSub) // comparisons cost like a subtract
	vm.Stats.Cycles.Emulate += cmpCycles
	m.Cycles += cmpCycles
	ord, unordered := vm.Sys.Compare(a, b)
	switch {
	case unordered:
		m.SetCompareFlags(true, true, true)
	case ord > 0:
		m.SetCompareFlags(false, false, false)
	case ord < 0:
		m.SetCompareFlags(false, false, true)
	default:
		m.SetCompareFlags(true, false, false)
	}
	return nil
}

// runToInt emulates cvtsd2si/cvttsd2si: shadow → integer conversion.
func (vm *VM) runToInt(m *machine.Machine, d *decodedInst) error {
	bits, err := vm.readFP(m, d.srcs[0], 0)
	if err != nil {
		return err
	}
	v := vm.value(bits)
	vm.Stats.Emulated++
	rc := m.MXCSR.RC()
	if d.truncate {
		rc = fpu.RCZero
	}
	i, ok := vm.Sys.ToInt64(v, rc)
	if !ok {
		i = -1 << 63 // integer indefinite, as the hardware would produce
	}
	return m.WriteOperandInt(d.dst, i)
}

// runFromInt emulates cvtsi2sd: integer → shadow conversion.
func (vm *VM) runFromInt(m *machine.Machine, d *decodedInst) error {
	iv, err := m.ReadOperandInt(d.srcs[0])
	if err != nil {
		return err
	}
	res := vm.Sys.FromInt64(iv)
	vm.Stats.Emulated++
	bits, err := vm.boxResult(res)
	if err != nil {
		return err
	}
	return m.WriteOperandFP(d.dst, 0, bits)
}

// runMove emulates movsd/movapd. Moves never fault and carry no arithmetic:
// the handler transports the raw (possibly NaN-boxed) bits exactly as the
// hardware would, so a coalesced run continues through register/memory
// shuffling. Mirrors Machine.execFPMove: movsd from memory zeroes the upper
// destination lane; movapd copies both lanes.
func (vm *VM) runMove(m *machine.Machine, d *decodedInst) error {
	if d.lanes == 1 {
		bits, err := vm.readFP(m, d.srcs[0], 0)
		if err != nil {
			return err
		}
		if d.dst.Kind == isa.KindFPReg && d.srcs[0].Kind == isa.KindMem {
			if err := m.WriteOperandFP(d.dst, 1, 0); err != nil {
				return err
			}
		}
		return m.WriteOperandFP(d.dst, 0, bits)
	}
	for lane := 0; lane < 2; lane++ {
		bits, err := vm.readFP(m, d.srcs[0], lane)
		if err != nil {
			return err
		}
		if err := m.WriteOperandFP(d.dst, lane, bits); err != nil {
			return err
		}
	}
	return nil
}

// readFP reads one FP operand lane for the emulator. Memory operands cross
// the guest-memory seam, where the fault injector can force a degradable
// access failure; with no injector attached this is a plain read behind one
// nil compare.
func (vm *VM) readFP(m *machine.Machine, o isa.Operand, lane int) (uint64, error) {
	if j := vm.inject; j != nil && o.Kind == isa.KindMem && j.Fire(faultinject.SeamMemAccess, vm.injectPC) {
		return 0, degradeFault(telemetry.DegradeMem, errInjected)
	}
	return m.ReadOperandFP(o, lane)
}
