package fpvm

import (
	"fpvm/internal/arith"
	"fpvm/internal/faultinject"
	"fpvm/internal/fpu"
	"fpvm/internal/isa"
	"fpvm/internal/machine"
	"fpvm/internal/telemetry"
)

// kindRunners maps an instruction kind to its emulation body. A step
// resolves its runner once, when it is decoded (step.compile), so neither an
// uncached nor a cached step dispatches on the kind again. Each runner is
// §4.1's emulator for its kind: it executes the decoded instruction in the
// alternative arithmetic system, one scalar operation per vector lane;
// results are boxed into the destination, compares write RFLAGS and
// conversions cross the IEEE/shadow boundary. The caller (runTrace) retires
// the instruction by advancing RIP past it.
var kindRunners = [...]func(*VM, *machine.Machine, *decodedInst) error{
	kindArith:   (*VM).runArith,
	kindCompare: (*VM).runCompare,
	kindToInt:   (*VM).runToInt,
	kindFromInt: (*VM).runFromInt,
	kindMove:    (*VM).runMove,
}

// runArith emulates an FP arithmetic instruction: one Apply per lane,
// results boxed and retired atomically.
func (vm *VM) runArith(m *machine.Machine, d *decodedInst) error {
	// Lane results are buffered and written only after every lane has
	// computed (the same atomic retire the native executor performs), so
	// a degradable fault on lane 1 leaves the destination — which is
	// also a source for binary ops — untouched for the degradation
	// engine's native re-execution.
	err := vm.applyLanes(m, d)
	for lane := 0; err == nil && lane < d.lanes; lane++ {
		if d.dst.Kind == isa.KindFPReg {
			m.F[d.dst.Reg][lane] = vm.pending[lane]
		} else {
			err = m.WriteOperandFP(&d.dst, lane, vm.pending[lane])
		}
	}
	vm.pending = [2]uint64{}
	return err
}

// applyLanes computes and boxes every lane of an arithmetic instruction into
// vm.pending. The buffer is a GC root (RunGC): lane 1's allocation may run a
// soft-cap GC pass, which must not free lane 0's cell before it is written.
func (vm *VM) applyLanes(m *machine.Machine, d *decodedInst) error {
	opCycles := vm.opCycles[d.aop]
	for lane := 0; lane < d.lanes; lane++ {
		var args [3]arith.Cell
		for i := range d.srcs {
			bits, err := vm.readFP(m, &d.srcs[i], lane)
			if err != nil {
				return err
			}
			args[i] = vm.value(bits, i)
		}
		vm.cells.Apply(d.aop, resultCell, args[0], args[1], args[2])
		vm.Stats.Emulated++
		vm.Stats.Cycles.Emulate += opCycles
		m.Cycles += opCycles
		bits, err := vm.boxResult(resultCell)
		if err != nil {
			return err
		}
		vm.pending[lane] = bits
	}
	return nil
}

// runCompare emulates ucomisd/comisd: the shadow comparison writes RFLAGS.
func (vm *VM) runCompare(m *machine.Machine, d *decodedInst) error {
	abits, err := vm.readFP(m, &d.srcs[0], 0)
	if err != nil {
		return err
	}
	bbits, err := vm.readFP(m, &d.srcs[1], 0)
	if err != nil {
		return err
	}
	a, b := vm.value(abits, 0), vm.value(bbits, 1)
	vm.Stats.Emulated++
	cmpCycles := vm.opCycles[arith.OpSub] // comparisons cost like a subtract
	vm.Stats.Cycles.Emulate += cmpCycles
	m.Cycles += cmpCycles
	ord, unordered := vm.cells.Compare(a, b)
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
	bits, err := vm.readFP(m, &d.srcs[0], 0)
	if err != nil {
		return err
	}
	v := vm.value(bits, 0)
	vm.Stats.Emulated++
	rc := m.MXCSR.RC()
	if d.truncate {
		rc = fpu.RCZero
	}
	i, ok := vm.cells.Int64(v, rc)
	if !ok {
		i = -1 << 63 // integer indefinite, as the hardware would produce
	}
	return m.WriteOperandInt(&d.dst, i)
}

// runFromInt emulates cvtsi2sd: integer → shadow conversion.
func (vm *VM) runFromInt(m *machine.Machine, d *decodedInst) error {
	iv, err := m.ReadOperandInt(&d.srcs[0])
	if err != nil {
		return err
	}
	vm.cells.SetInt64(resultCell, iv)
	vm.Stats.Emulated++
	bits, err := vm.boxResult(resultCell)
	if err != nil {
		return err
	}
	return m.WriteOperandFP(&d.dst, 0, bits)
}

// runMove emulates movsd/movapd. Moves never fault and carry no arithmetic:
// the handler transports the raw (possibly NaN-boxed) bits exactly as the
// hardware would, so a coalesced run continues through register/memory
// shuffling. Mirrors Machine.execFPMove: movsd from memory zeroes the upper
// destination lane; movapd copies both lanes.
func (vm *VM) runMove(m *machine.Machine, d *decodedInst) error {
	if d.lanes == 1 {
		bits, err := vm.readFP(m, &d.srcs[0], 0)
		if err != nil {
			return err
		}
		if d.dst.Kind == isa.KindFPReg && d.srcs[0].Kind == isa.KindMem {
			if err := m.WriteOperandFP(&d.dst, 1, 0); err != nil {
				return err
			}
		}
		return m.WriteOperandFP(&d.dst, 0, bits)
	}
	for lane := 0; lane < 2; lane++ {
		bits, err := vm.readFP(m, &d.srcs[0], lane)
		if err != nil {
			return err
		}
		if err := m.WriteOperandFP(&d.dst, lane, bits); err != nil {
			return err
		}
	}
	return nil
}

// readFP reads one FP operand lane for the emulator. A register lane is
// read in place; a memory operand crosses the guest-memory seam, where the
// fault injector can force a degradable access failure.
func (vm *VM) readFP(m *machine.Machine, o *isa.Operand, lane int) (uint64, error) {
	if o.Kind == isa.KindFPReg {
		return m.F[o.Reg][lane], nil
	}
	if j := vm.inject; j != nil && o.Kind == isa.KindMem && j.Fire(faultinject.SeamMemAccess, vm.injectPC) {
		return 0, degradeFault(telemetry.DegradeMem, errInjected)
	}
	return m.ReadOperandFP(o, lane)
}
