package fpvm

import (
	"fmt"

	"fpvm/internal/arith"
	"fpvm/internal/faultinject"
	"fpvm/internal/isa"
	"fpvm/internal/machine"
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
// operand slots in emulation order, and any special details. The struct is
// fixed-size: srcs is always a view into the inline srcbuf array, so a
// decodedInst can be recycled through the VM's freelist across sessions
// without allocating (and must not be copied once srcs is set).
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

// step is the one executable form of an instruction inside a trace: the
// decoded (and, by the paper's terms, bound) instruction plus the per-kind
// runner resolved when it was decoded. A decode-cache entry is a step, and a
// cached trace is a slice of them, so an uncached step and a cached one run
// the same way and differ only in their modeled charges and fault seams
// (runTrace).
type step struct {
	d   decodedInst
	run func(*VM, *machine.Machine, *decodedInst) error
}

// compile translates in into st and resolves its runner.
func (st *step) compile(in *isa.Inst) error {
	if err := translate(in, &st.d); err != nil {
		return err
	}
	st.run = kindRunners[st.d.kind]
	return nil
}

// setSrcs records the source operands in emulation order into the inline
// buffer and points srcs at it.
func (d *decodedInst) setSrcs(ops ...isa.Operand) {
	n := copy(d.srcbuf[:], ops)
	d.srcs = d.srcbuf[:n]
}

// decode returns the step for the instruction at dense index idx,
// consulting the decode cache first (§4.1: "this decode cache is critical
// to lowering latencies"). The cache is a dense side table keyed by the
// machine's instruction index — a single bounds-checked slot access instead
// of the seed's address-keyed map probe. A translation failure (non-FP or
// unsupported form) is a degradable fault, never cached, so the degradation
// engine can retire the instruction natively.
func (vm *VM) decode(idx int, in *isa.Inst) (*step, error) {
	if j := vm.inject; j != nil && j.Fire(faultinject.SeamDecode, in.Addr) {
		return nil, degradeFault(telemetry.DegradeDecode, errInjected)
	}
	if st := vm.dcache[idx]; st != nil {
		vm.Stats.DecodeHits++
		vm.Stats.Cycles.Decode += vm.costs.DecodeHit
		vm.M.Cycles += vm.costs.DecodeHit
		return st, nil
	}
	vm.Stats.DecodeMisses++
	vm.Stats.Cycles.Decode += vm.costs.DecodeMiss
	vm.M.Cycles += vm.costs.DecodeMiss

	st := vm.newStep()
	if err := st.compile(in); err != nil {
		vm.dfree = append(vm.dfree, st)
		return nil, err
	}
	vm.dcache[idx] = st
	return st, nil
}

// newStep returns a step for decode to fill, recycling one from the
// freelist when available so a reused session's decode misses allocate
// nothing.
func (vm *VM) newStep() *step {
	if n := len(vm.dfree); n > 0 {
		st := vm.dfree[n-1]
		vm.dfree[n-1] = nil
		vm.dfree = vm.dfree[:n-1]
		return st
	}
	return new(step)
}

// bind charges the operand-binding cost. The actual address resolution
// happens lazily through the machine's operand accessors, but the paper's
// binder pre-resolves pointers; the cost is what matters for Figure 9.
func (vm *VM) bind(in *isa.Inst) error {
	vm.Stats.Cycles.Bind += vm.costs.Bind
	vm.M.Cycles += vm.costs.Bind
	if j := vm.inject; j != nil && j.Fire(faultinject.SeamBind, in.Addr) {
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
func translate(in *isa.Inst, d *decodedInst) error {
	*d = decodedInst{inst: *in, lanes: 1}
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
