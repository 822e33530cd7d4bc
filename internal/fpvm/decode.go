package fpvm

import (
	"fmt"

	"fpvm/internal/arith"
	"fpvm/internal/faultinject"
	"fpvm/internal/isa"
	"fpvm/internal/telemetry"
)

// instKind classifies a decoded FP instruction for the emulator.
type instKind uint8

const (
	kindArith   instKind = iota // result is a shadow value written to dst
	kindCompare                 // writes RFLAGS, no destination value
	kindToInt                   // double → integer conversion
	kindFromInt                 // integer → double conversion
	kindMove                    // bit transport (sequence emulation only)
)

// decodedInst is FPVM's decoder-independent instruction representation: the
// Go analog of the paper's `struct instruction` — a simplified op code, the
// operand slots in emulation order, and any special details. Entries live
// in the decode cache keyed by code address. The struct is fixed-size: srcs
// is always a view into the inline srcbuf array, so a decodedInst can be
// recycled through the VM's freelist across sessions without allocating.
type decodedInst struct {
	inst   isa.Inst
	kind   instKind
	aop    arith.Op       // for kindArith
	lanes  int            // 1 for scalar, 2 for packed
	srcs   []isa.Operand  // source operand descriptors (= srcbuf[:n]), emulation order
	srcbuf [3]isa.Operand // inline backing store for srcs
	dst    isa.Operand    // destination operand

	signalQuiet bool // comisd (signal on quiet NaN)
	truncate    bool // cvttsd2si
}

// setSrcs records the source operands in emulation order into the inline
// buffer and points srcs at it.
func (d *decodedInst) setSrcs(ops ...isa.Operand) {
	n := copy(d.srcbuf[:], ops)
	d.srcs = d.srcbuf[:n]
}

// decode translates a machine instruction into FPVM's representation,
// consulting the decode cache first (§4.1: "this decode cache is critical
// to lowering latencies"). The cache is a dense side table keyed by the
// machine's instruction index — a single bounds-checked slot access instead
// of the seed's address-keyed map probe. A translation failure (non-FP or
// unsupported form) is a degradable fault, never cached, so the degradation
// engine can retire the instruction natively.
func (vm *VM) decode(idx int, in isa.Inst) (*decodedInst, error) {
	if j := vm.inject; j != nil && j.Fire(faultinject.SeamDecode, in.Addr) {
		return nil, degradeFault(telemetry.DegradeDecode, errInjected)
	}
	if d := vm.dcache[idx]; d != nil {
		vm.Stats.DecodeHits++
		vm.Stats.Cycles.Decode += vm.costs.DecodeHit
		vm.M.Cycles += vm.costs.DecodeHit
		return d, nil
	}
	vm.Stats.DecodeMisses++
	vm.Stats.Cycles.Decode += vm.costs.DecodeMiss
	vm.M.Cycles += vm.costs.DecodeMiss

	d := vm.newDecoded()
	if err := translate(in, d); err != nil {
		vm.freeDecoded(d)
		return nil, err
	}
	vm.dcache[idx] = d
	return d, nil
}

// newDecoded returns a zeroed decodedInst, recycling one from the freelist
// when available so a reused session's decode misses allocate nothing.
func (vm *VM) newDecoded() *decodedInst {
	if n := len(vm.dfree); n > 0 {
		d := vm.dfree[n-1]
		vm.dfree[n-1] = nil
		vm.dfree = vm.dfree[:n-1]
		return d
	}
	return new(decodedInst)
}

// freeDecoded returns d to the freelist for a later newDecoded.
func (vm *VM) freeDecoded(d *decodedInst) {
	vm.dfree = append(vm.dfree, d)
}

// bind charges the operand-binding cost. The actual address resolution
// happens lazily through the machine's operand accessors, but the paper's
// binder pre-resolves pointers; the cost is what matters for Figure 9.
func (vm *VM) bind(d *decodedInst) error {
	vm.Stats.Cycles.Bind += vm.costs.Bind
	vm.M.Cycles += vm.costs.Bind
	if j := vm.inject; j != nil && j.Fire(faultinject.SeamBind, d.inst.Addr) {
		return degradeFault(telemetry.DegradeBind, errInjected)
	}
	return nil
}

// arithBinOps maps two-operand x64-style instructions (dst = dst op src)
// to their scalar arithmetic operation.
var arithBinOps = map[isa.Op]arith.Op{
	isa.OpAddsd: arith.OpAdd, isa.OpAddpd: arith.OpAdd,
	isa.OpSubsd: arith.OpSub, isa.OpSubpd: arith.OpSub,
	isa.OpMulsd: arith.OpMul, isa.OpMulpd: arith.OpMul,
	isa.OpDivsd: arith.OpDiv, isa.OpDivpd: arith.OpDiv,
	isa.OpMinsd: arith.OpMin, isa.OpMaxsd: arith.OpMax,
}

// arithUnaryOps maps dst = op(src) instructions.
var arithUnaryOps = map[isa.Op]arith.Op{
	isa.OpSqrtsd: arith.OpSqrt, isa.OpSqrtpd: arith.OpSqrt,
	isa.OpFabs: arith.OpAbs, isa.OpFneg: arith.OpNeg,
	isa.OpFsin: arith.OpSin, isa.OpFcos: arith.OpCos, isa.OpFtan: arith.OpTan,
	isa.OpFasin: arith.OpAsin, isa.OpFacos: arith.OpAcos, isa.OpFatan: arith.OpAtan,
	isa.OpFexp: arith.OpExp, isa.OpFlog: arith.OpLog,
	isa.OpFlog2: arith.OpLog2, isa.OpFlog10: arith.OpLog10,
	isa.OpFfloor: arith.OpFloor, isa.OpFceil: arith.OpCeil,
	isa.OpFround: arith.OpRound, isa.OpFtrunc: arith.OpTrunc,
}

// arithTernaryOps maps dst = op(a, b) three-operand instructions.
var arithTernaryOps = map[isa.Op]arith.Op{
	isa.OpFatan2: arith.OpAtan2, isa.OpFpow: arith.OpPow,
	isa.OpFmod: arith.OpMod, isa.OpFhypot: arith.OpHypot,
}

// ArithOp reports the abstract scalar operation a machine FP instruction
// computes and whether it produces an FP result in its first operand. It is
// the public face of the decoder's op flattening, used by the differential
// oracle to key per-op error statistics the same way the emulator keys its
// dispatch. Compares and FP→int conversions return ok == false: they retire
// no FP destination.
func ArithOp(op isa.Op) (arith.Op, bool) {
	if a, ok := arithBinOps[op]; ok {
		return a, true
	}
	if a, ok := arithUnaryOps[op]; ok {
		return a, true
	}
	if a, ok := arithTernaryOps[op]; ok {
		return a, true
	}
	if op == isa.OpFmaddsd {
		return arith.OpFMA, true
	}
	return 0, false
}

// translate is the slow path of the decoder: it flattens the ISA's FP
// instructions down to the ~two dozen abstract operation types, filling the
// caller's (possibly recycled) decodedInst in place. An instruction outside
// that set is a degradable fault — not a panic — so a mispatched or
// misdelivered site degrades to native execution instead of killing the
// process.
func translate(in isa.Inst, d *decodedInst) error {
	*d = decodedInst{inst: in, lanes: 1}
	if in.Op.IsPacked() {
		d.lanes = 2
	}
	if a, ok := arithBinOps[in.Op]; ok {
		d.kind = kindArith
		d.aop = a
		d.setSrcs(in.Ops[0], in.Ops[1])
		d.dst = in.Ops[0]
		return nil
	}
	if a, ok := arithUnaryOps[in.Op]; ok {
		d.kind = kindArith
		d.aop = a
		d.setSrcs(in.Ops[1])
		d.dst = in.Ops[0]
		return nil
	}
	if a, ok := arithTernaryOps[in.Op]; ok {
		d.kind = kindArith
		d.aop = a
		d.setSrcs(in.Ops[1], in.Ops[2])
		d.dst = in.Ops[0]
		return nil
	}
	switch in.Op {
	case isa.OpFmaddsd:
		d.kind = kindArith
		d.aop = arith.OpFMA
		d.setSrcs(in.Ops[1], in.Ops[2], in.Ops[0])
		d.dst = in.Ops[0]
	case isa.OpUcomisd, isa.OpComisd:
		d.kind = kindCompare
		d.setSrcs(in.Ops[0], in.Ops[1])
		d.signalQuiet = in.Op == isa.OpComisd
	case isa.OpCvtsi2sd:
		d.kind = kindFromInt
		d.setSrcs(in.Ops[1])
		d.dst = in.Ops[0]
	case isa.OpCvtsd2si, isa.OpCvttsd2si:
		d.kind = kindToInt
		d.setSrcs(in.Ops[1])
		d.dst = in.Ops[0]
		d.truncate = in.Op == isa.OpCvttsd2si
	case isa.OpMovsd, isa.OpMovapd:
		// FP moves never raise exceptions, so they reach the decoder only
		// through sequence emulation's forward walk.
		d.kind = kindMove
		d.setSrcs(in.Ops[1])
		d.dst = in.Ops[0]
	default:
		return degradeFault(telemetry.DegradeDecode,
			fmt.Errorf("decoder fed non-FP instruction %s", in.Op))
	}
	return nil
}
