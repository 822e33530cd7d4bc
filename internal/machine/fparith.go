package machine

import (
	"math"

	"fpvm/internal/fpu"
	"fpvm/internal/isa"
)

// fpLaneResult holds one lane's computed result during FP execution.
type fpLaneResult struct {
	bits  uint64
	valid bool // whether this lane writes back (compares don't)
}

// fpOutcome is the computed effect of an FP arithmetic instruction before it
// retires: the lane results (or the compare or integer result) and the
// condition flags the computation raised.
type fpOutcome struct {
	flags     fpu.Flags
	lanes     [2]fpLaneResult
	laneCount int
	cmp       fpu.CompareResult
	isCmp     bool
	intResult int64
	intDst    int // operand index of an integer destination (cvtsd2si), -1 if none
}

// execFPArith executes a floating point arithmetic instruction with precise
// fault semantics: all lanes are computed, flags accumulated, and if any
// event is unmasked in MXCSR the instruction does NOT retire — no result or
// RFLAGS write happens — and the FP trap handler (FPVM) is invoked instead.
//
// A fired deadline stops the run before the trap is delivered: one delivery
// can emulate for far longer than a checkpoint interval of native
// instructions takes (a transcendental at thousands of bits takes tens of
// milliseconds). computeFP changes no state, so giving back charge, the
// instruction's cycles that exec added, leaves the machine as it was before
// the instruction. The analysis places no correctness site on FP
// arithmetic, so no trap was delivered for it either.
func (m *Machine) execFPArith(in *isa.Inst, charge uint32) error {
	var r fpOutcome
	if err := m.computeFP(in, &r); err != nil {
		return err
	}

	unmasked := m.MXCSR.Unmasked(r.flags)
	if unmasked != 0 && m.Preempt != nil && m.Preempt.Load() {
		m.Cycles -= uint64(charge)
		return m.deadline()
	}
	// Flags become sticky in MXCSR whether or not we trap (the paper's
	// handler reads them to learn the trap cause, then clears them).
	m.MXCSR.SetFlags(r.flags)
	if unmasked != 0 {
		m.Stats.FPTraps++
		m.Stats.TrapByFlag[unmasked&fpu.FlagAll]++
		if m.FPTrap == nil {
			return m.fault("unhandled FP exception %v at %v", unmasked, *in)
		}
		coalesced, err := m.deliverTrap(m.FPTrap, m.Delivery, CauseFPException, in, unmasked, 0)
		if err != nil {
			return err
		}
		// Multi-retire: a sequence-emulating handler may have retired a run
		// of instructions beyond the faulting one (Coalesced of them), all
		// inside the single delivery charged above.
		m.Stats.Instructions += 1 + uint64(coalesced)
		m.Stats.CoalescedFP += uint64(coalesced)
		return nil
	}
	if err := m.commitFP(in, &r); err != nil {
		return err
	}
	m.advance(in)
	m.Stats.Instructions++
	m.Stats.FPInstructions++
	return nil
}

// WouldTrap reports whether executing the instruction at dense index idx now
// would deliver an FP trap: it is FP arithmetic and, on the current operands,
// raises an event unmasked in MXCSR. The check runs the same FP dispatch as
// execution but changes no machine state. An instruction that is not FP
// arithmetic, or whose operand read would fault, reports false; executing it
// natively delivers no FP trap.
func (m *Machine) WouldTrap(idx int) bool {
	if idx < 0 || idx >= len(m.insts) {
		return false
	}
	var r fpOutcome
	return m.computeFP(&m.insts[idx], &r) == nil && m.MXCSR.Unmasked(r.flags) != 0
}

// computeFP computes every lane of an FP arithmetic instruction and the
// condition flags it raises into r, without changing machine state.
func (m *Machine) computeFP(in *isa.Inst, r *fpOutcome) error {
	r.intDst = -1
	r.laneCount = 1
	if in.Op.IsPacked() {
		r.laneCount = 2
	}

	for lane := 0; lane < r.laneCount; lane++ {
		switch in.Op {
		case isa.OpAddsd, isa.OpSubsd, isa.OpMulsd, isa.OpDivsd, isa.OpMinsd,
			isa.OpMaxsd, isa.OpAddpd, isa.OpSubpd, isa.OpMulpd, isa.OpDivpd,
			isa.OpFmod, isa.OpFatan2, isa.OpFpow, isa.OpFhypot:
			// Binary: dst = dst op src, or ternary dst = f(a, b).
			aop, bop := &in.Ops[0], &in.Ops[1]
			if len(in.Ops) == 3 {
				aop, bop = &in.Ops[1], &in.Ops[2]
			}
			abits, err := m.readFPBits(aop, lane)
			if err != nil {
				return err
			}
			bbits, err := m.readFPBits(bop, lane)
			if err != nil {
				return err
			}
			res := fpBinary(in.Op, math.Float64frombits(abits), math.Float64frombits(bbits))
			r.flags |= res.Flags
			r.lanes[lane] = fpLaneResult{math.Float64bits(res.Value), true}

		case isa.OpSqrtsd, isa.OpSqrtpd, isa.OpFabs, isa.OpFneg, isa.OpFsin,
			isa.OpFcos, isa.OpFtan, isa.OpFasin, isa.OpFacos, isa.OpFatan,
			isa.OpFexp, isa.OpFlog, isa.OpFlog2, isa.OpFlog10, isa.OpFfloor,
			isa.OpFceil, isa.OpFround, isa.OpFtrunc:
			bits, err := m.readFPBits(&in.Ops[1], lane)
			if err != nil {
				return err
			}
			res := fpUnary(in.Op, math.Float64frombits(bits))
			r.flags |= res.Flags
			r.lanes[lane] = fpLaneResult{math.Float64bits(res.Value), true}

		case isa.OpFmaddsd:
			// dst = src1*src2 + dst
			abits, err := m.readFPBits(&in.Ops[1], lane)
			if err != nil {
				return err
			}
			bbits, err := m.readFPBits(&in.Ops[2], lane)
			if err != nil {
				return err
			}
			cbits, err := m.readFPBits(&in.Ops[0], lane)
			if err != nil {
				return err
			}
			res := fpu.FMAdd(math.Float64frombits(abits), math.Float64frombits(bbits), math.Float64frombits(cbits))
			r.flags |= res.Flags
			r.lanes[lane] = fpLaneResult{math.Float64bits(res.Value), true}

		case isa.OpUcomisd, isa.OpComisd:
			abits, err := m.readFPBits(&in.Ops[0], lane)
			if err != nil {
				return err
			}
			bbits, err := m.readFPBits(&in.Ops[1], lane)
			if err != nil {
				return err
			}
			if in.Op == isa.OpUcomisd {
				r.cmp = fpu.Ucomisd(math.Float64frombits(abits), math.Float64frombits(bbits))
			} else {
				r.cmp = fpu.Comisd(math.Float64frombits(abits), math.Float64frombits(bbits))
			}
			r.flags |= r.cmp.Flags
			r.isCmp = true

		case isa.OpCvtsi2sd:
			v, err := m.readInt(&in.Ops[1])
			if err != nil {
				return err
			}
			res := fpu.Cvtsi2sd(v)
			r.flags |= res.Flags
			r.lanes[lane] = fpLaneResult{math.Float64bits(res.Value), true}

		case isa.OpCvtsd2si, isa.OpCvttsd2si:
			bits, err := m.readFPBits(&in.Ops[1], 0)
			if err != nil {
				return err
			}
			var res fpu.IntResult
			if in.Op == isa.OpCvttsd2si {
				res = fpu.Cvttsd2si(math.Float64frombits(bits))
			} else {
				res = fpu.Cvtsd2si(math.Float64frombits(bits), m.MXCSR.RC())
			}
			r.flags |= res.Flags
			r.intResult = res.Value
			r.intDst = 0

		default:
			return m.fault("unhandled FP op %v", in.Op)
		}
	}
	return nil
}

// commitFP retires a computed FP arithmetic instruction: it writes the
// compare flags, the integer result, or the lane results.
func (m *Machine) commitFP(in *isa.Inst, r *fpOutcome) error {
	switch {
	case r.isCmp:
		m.Flags.ZF, m.Flags.PF, m.Flags.CF = r.cmp.ZF, r.cmp.PF, r.cmp.CF
		m.Flags.OF, m.Flags.SF = false, false
	case r.intDst >= 0:
		return m.writeInt(&in.Ops[r.intDst], r.intResult)
	default:
		for lane := 0; lane < r.laneCount; lane++ {
			if r.lanes[lane].valid {
				if err := m.writeFPBits(&in.Ops[0], lane, r.lanes[lane].bits); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// fpBinary dispatches two-input FP operations to the FPU.
func fpBinary(op isa.Op, a, b float64) fpu.Result {
	switch op {
	case isa.OpAddsd, isa.OpAddpd:
		return fpu.Add(a, b)
	case isa.OpSubsd, isa.OpSubpd:
		return fpu.Sub(a, b)
	case isa.OpMulsd, isa.OpMulpd:
		return fpu.Mul(a, b)
	case isa.OpDivsd, isa.OpDivpd:
		return fpu.Div(a, b)
	case isa.OpMinsd:
		return fpu.Min(a, b)
	case isa.OpMaxsd:
		return fpu.Max(a, b)
	case isa.OpFmod:
		return fpu.Fmod(a, b)
	case isa.OpFatan2:
		return fpu.Fatan2(a, b)
	case isa.OpFpow:
		return fpu.Fpow(a, b)
	case isa.OpFhypot:
		return fpu.Fhypot(a, b)
	default:
		panic("fpBinary: bad op " + op.String())
	}
}

// fpUnary dispatches one-input FP operations to the FPU.
func fpUnary(op isa.Op, v float64) fpu.Result {
	switch op {
	case isa.OpSqrtsd, isa.OpSqrtpd:
		return fpu.Sqrt(v)
	case isa.OpFabs:
		return fpu.Fabs(v)
	case isa.OpFneg:
		return fpu.Fneg(v)
	case isa.OpFsin:
		return fpu.Fsin(v)
	case isa.OpFcos:
		return fpu.Fcos(v)
	case isa.OpFtan:
		return fpu.Ftan(v)
	case isa.OpFasin:
		return fpu.Fasin(v)
	case isa.OpFacos:
		return fpu.Facos(v)
	case isa.OpFatan:
		return fpu.Fatan(v)
	case isa.OpFexp:
		return fpu.Fexp(v)
	case isa.OpFlog:
		return fpu.Flog(v)
	case isa.OpFlog2:
		return fpu.Flog2(v)
	case isa.OpFlog10:
		return fpu.Flog10(v)
	case isa.OpFfloor:
		return fpu.Ffloor(v)
	case isa.OpFceil:
		return fpu.Fceil(v)
	case isa.OpFround:
		return fpu.Fround(v)
	case isa.OpFtrunc:
		return fpu.Ftrunc(v)
	default:
		panic("fpUnary: bad op " + op.String())
	}
}
