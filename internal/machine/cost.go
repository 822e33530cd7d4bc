package machine

import "fpvm/internal/isa"

// CostModel assigns per-instruction cycle costs, roughly following published
// instruction latencies for the Opteron/Xeon class machines in the paper.
// Absolute fidelity is not the goal; what matters for reproducing the
// paper's shapes is the *ratio* between plain instructions and the
// trap+emulate path (thousands of cycles per virtualized FP instruction).
type CostModel struct {
	IntALU     uint64 // add/sub/logic/compare
	IntMul     uint64
	IntDiv     uint64
	Branch     uint64
	MemAccess  uint64 // per memory operand touched
	FPMove     uint64
	FPAddMul   uint64 // addsd/subsd/mulsd/min/max/compare/convert
	FPDiv      uint64
	FPSqrt     uint64
	FPTrans    uint64 // libm-style transcendental ops
	Output     uint64 // outf/outi formatting
	PatchCheck uint64 // inline precondition check at a patched site (§3.2)
}

// DefaultCostModel returns latencies for the baseline machine.
func DefaultCostModel() CostModel {
	return CostModel{
		IntALU:     1,
		IntMul:     3,
		IntDiv:     22,
		Branch:     1,
		MemAccess:  2,
		FPMove:     1,
		FPAddMul:   3,
		FPDiv:      16,
		FPSqrt:     20,
		FPTrans:    110,
		Output:     400,
		PatchCheck: 9,
	}
}

// opCost returns the base cost of executing op natively.
func (c *CostModel) opCost(op isa.Op) uint64 {
	switch op {
	case isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpNot,
		isa.OpNeg, isa.OpShl, isa.OpShr, isa.OpSar, isa.OpCmp, isa.OpTest,
		isa.OpInc, isa.OpDec, isa.OpMov, isa.OpLea, isa.OpNop, isa.OpCycles:
		return c.IntALU
	case isa.OpImul:
		return c.IntMul
	case isa.OpIdiv:
		return c.IntDiv
	case isa.OpJmp, isa.OpJe, isa.OpJne, isa.OpJl, isa.OpJle, isa.OpJg,
		isa.OpJge, isa.OpJb, isa.OpJbe, isa.OpJa, isa.OpJae, isa.OpJp,
		isa.OpJnp, isa.OpCall, isa.OpRet, isa.OpPush, isa.OpPop:
		return c.Branch
	case isa.OpMovsd, isa.OpMovapd, isa.OpXorpd, isa.OpAndpd, isa.OpOrpd:
		return c.FPMove
	case isa.OpAddsd, isa.OpSubsd, isa.OpMulsd, isa.OpMinsd, isa.OpMaxsd,
		isa.OpAddpd, isa.OpSubpd, isa.OpMulpd, isa.OpFmaddsd,
		isa.OpUcomisd, isa.OpComisd, isa.OpCvtsi2sd, isa.OpCvtsd2si,
		isa.OpCvttsd2si, isa.OpFabs, isa.OpFneg, isa.OpFfloor, isa.OpFceil,
		isa.OpFround, isa.OpFtrunc:
		return c.FPAddMul
	case isa.OpDivsd, isa.OpDivpd, isa.OpFmod:
		return c.FPDiv
	case isa.OpSqrtsd, isa.OpSqrtpd:
		return c.FPSqrt
	case isa.OpFsin, isa.OpFcos, isa.OpFtan, isa.OpFasin, isa.OpFacos,
		isa.OpFatan, isa.OpFatan2, isa.OpFexp, isa.OpFlog, isa.OpFlog2,
		isa.OpFlog10, isa.OpFpow, isa.OpFhypot:
		return c.FPTrans
	case isa.OpOutf, isa.OpOuti, isa.OpOutc:
		return c.Output
	case isa.OpHalt, isa.OpCallext, isa.OpTrapc:
		return c.IntALU
	default:
		return c.IntALU
	}
}

// costModel is the one cost model every machine charges: NewImage folds it
// into each instruction's charge, and Step charges its PatchCheck.
var costModel = DefaultCostModel()

// charge returns the modeled cycles of executing in natively: its opcode's
// base cost plus MemAccess per memory operand it touches. NewImage computes
// it once per instruction; dispatch adds it without looking at in again.
func (c *CostModel) charge(in *isa.Inst) uint32 {
	n := c.opCost(in.Op)
	for i := range in.Ops {
		if in.Ops[i].Kind == isa.KindMem {
			n += c.MemAccess
		}
	}
	return uint32(n)
}
