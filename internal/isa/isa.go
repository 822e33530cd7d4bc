// Package isa defines the x64-subset instruction set executed by the machine
// simulator. It is the stand-in for the "several(!) floating point ISAs" of
// real x64 in the FPVM paper: a variable-length binary encoding, scalar and
// packed double-precision operations on 128-bit FP registers, integer and
// control-flow instructions, and — crucially — the same virtualization hole
// the paper exploits: FP moves, bitwise FP register operations, and integer
// loads never fault on signaling NaNs, while FP arithmetic does.
package isa

import "fmt"

// Op is an opcode. The set flattens the hundreds of x64 FP instructions the
// paper mentions down to about forty FP operation types plus the integer and
// control instructions the workloads need, mirroring FPVM's decoder output.
type Op uint8

// Floating point scalar ops (operate on lane 0 of 128-bit FP registers).
const (
	OpInvalid Op = iota

	// Data movement: never faults, even on signaling NaNs (the hole).
	OpMovsd  // movsd  dst, src      (fp<-fp, fp<-mem, mem<-fp)
	OpMovapd // movapd dst, src      (both lanes, 16 bytes)

	// Scalar arithmetic: faults per MXCSR on NaN/rounding/overflow/etc.
	OpAddsd
	OpSubsd
	OpMulsd
	OpDivsd
	OpSqrtsd
	OpMinsd
	OpMaxsd
	OpFmaddsd // dst = src1*src2 + dst (fused)

	// Packed (two-lane) arithmetic.
	OpAddpd
	OpSubpd
	OpMulpd
	OpDivpd
	OpSqrtpd

	// Bitwise FP register ops: never fault (the compiler-idiom hole:
	// xorpd to flip sign bits, andpd to mask them).
	OpXorpd
	OpAndpd
	OpOrpd

	// Comparisons: write RFLAGS. Both signal invalid on sNaN; Comisd also
	// signals on quiet NaN, Ucomisd does not (as on x64).
	OpUcomisd
	OpComisd

	// Conversions.
	OpCvtsi2sd // int → double
	OpCvtsd2si // double → int, rounded per MXCSR.RC
	OpCvttsd2si

	// Transcendental / libm-style ops: modeled as ISA instructions that set
	// MXCSR flags like any other FP op (standing in for the paper's "math
	// wrapper" interposition on libm calls).
	OpFabs
	OpFneg
	OpFsin
	OpFcos
	OpFtan
	OpFasin
	OpFacos
	OpFatan
	OpFatan2
	OpFexp
	OpFlog
	OpFlog2
	OpFlog10
	OpFpow
	OpFfloor
	OpFceil
	OpFround
	OpFtrunc
	OpFmod
	OpFhypot

	// Integer ops.
	OpMov // mov dst, src (64-bit)
	OpLea
	OpAdd
	OpSub
	OpImul
	OpIdiv
	OpNeg
	OpNot
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpSar
	OpCmp
	OpTest
	OpInc
	OpDec

	// Control flow.
	OpJmp
	OpJe
	OpJne
	OpJl
	OpJle
	OpJg
	OpJge
	OpJb  // unsigned below  (ucomisd: "less than")
	OpJbe // unsigned below-or-equal
	OpJa  // unsigned above
	OpJae // unsigned above-or-equal
	OpJp  // parity set (unordered FP compare)
	OpJnp
	OpCall
	OpRet
	OpPush
	OpPop

	// System.
	OpHalt
	OpNop
	OpOutf    // print float64 from FP reg lane 0 (printf stand-in)
	OpOuti    // print integer register
	OpOutc    // print a character (low byte of operand)
	OpCallext // call into an un-analyzed "external library" (id in imm)
	OpTrapc   // correctness trap inserted by the static patcher
	OpCycles  // read cycle counter into an integer register

	opCount
)

var opNames = map[Op]string{
	OpMovsd: "movsd", OpMovapd: "movapd",
	OpAddsd: "addsd", OpSubsd: "subsd", OpMulsd: "mulsd", OpDivsd: "divsd",
	OpSqrtsd: "sqrtsd", OpMinsd: "minsd", OpMaxsd: "maxsd", OpFmaddsd: "fmaddsd",
	OpAddpd: "addpd", OpSubpd: "subpd", OpMulpd: "mulpd", OpDivpd: "divpd", OpSqrtpd: "sqrtpd",
	OpXorpd: "xorpd", OpAndpd: "andpd", OpOrpd: "orpd",
	OpUcomisd: "ucomisd", OpComisd: "comisd",
	OpCvtsi2sd: "cvtsi2sd", OpCvtsd2si: "cvtsd2si", OpCvttsd2si: "cvttsd2si",
	OpFabs: "fabs", OpFneg: "fneg", OpFsin: "fsin", OpFcos: "fcos", OpFtan: "ftan",
	OpFasin: "fasin", OpFacos: "facos", OpFatan: "fatan", OpFatan2: "fatan2",
	OpFexp: "fexp", OpFlog: "flog", OpFlog2: "flog2", OpFlog10: "flog10", OpFpow: "fpow",
	OpFfloor: "ffloor", OpFceil: "fceil", OpFround: "fround", OpFtrunc: "ftrunc",
	OpFmod: "fmod", OpFhypot: "fhypot",
	OpMov: "mov", OpLea: "lea", OpAdd: "add", OpSub: "sub", OpImul: "imul",
	OpIdiv: "idiv", OpNeg: "neg", OpNot: "not", OpAnd: "and", OpOr: "or",
	OpXor: "xor", OpShl: "shl", OpShr: "shr", OpSar: "sar", OpCmp: "cmp",
	OpTest: "test", OpInc: "inc", OpDec: "dec",
	OpJmp: "jmp", OpJe: "je", OpJne: "jne", OpJl: "jl", OpJle: "jle",
	OpJg: "jg", OpJge: "jge", OpJb: "jb", OpJbe: "jbe", OpJa: "ja", OpJae: "jae",
	OpJp: "jp", OpJnp: "jnp", OpCall: "call", OpRet: "ret",
	OpPush: "push", OpPop: "pop",
	OpHalt: "halt", OpNop: "nop", OpOutf: "outf", OpOuti: "outi", OpOutc: "outc",
	OpCallext: "callext", OpTrapc: "trapc", OpCycles: "cycles",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o > OpInvalid && o < opCount }

// IsFPArith reports whether o is a floating point instruction that can
// raise MXCSR exceptions (the trap-and-emulate surface). Moves and bitwise
// FP ops are excluded: they are precisely the instructions the paper's
// static analysis must patch.
func (o Op) IsFPArith() bool {
	switch o {
	case OpAddsd, OpSubsd, OpMulsd, OpDivsd, OpSqrtsd, OpMinsd, OpMaxsd,
		OpFmaddsd, OpAddpd, OpSubpd, OpMulpd, OpDivpd, OpSqrtpd,
		OpUcomisd, OpComisd, OpCvtsi2sd, OpCvtsd2si, OpCvttsd2si,
		OpFabs, OpFneg, OpFsin, OpFcos, OpFtan, OpFasin, OpFacos, OpFatan,
		OpFatan2, OpFexp, OpFlog, OpFlog2, OpFlog10, OpFpow,
		OpFfloor, OpFceil, OpFround, OpFtrunc, OpFmod, OpFhypot:
		return true
	}
	return false
}

// IsFPBitwise reports whether o is a non-faulting bitwise operation on FP
// registers (xorpd-style sign manipulation).
func (o Op) IsFPBitwise() bool {
	return o == OpXorpd || o == OpAndpd || o == OpOrpd
}

// IsFPMove reports whether o moves FP data without arithmetic semantics.
func (o Op) IsFPMove() bool { return o == OpMovsd || o == OpMovapd }

// IsPacked reports whether o operates on both 64-bit lanes.
func (o Op) IsPacked() bool {
	switch o {
	case OpAddpd, OpSubpd, OpMulpd, OpDivpd, OpSqrtpd, OpMovapd,
		OpXorpd, OpAndpd, OpOrpd:
		return true
	}
	return false
}

// IsBranch reports whether o is a (conditional or unconditional) jump.
func (o Op) IsBranch() bool {
	switch o {
	case OpJmp, OpJe, OpJne, OpJl, OpJle, OpJg, OpJge,
		OpJb, OpJbe, OpJa, OpJae, OpJp, OpJnp:
		return true
	}
	return false
}

// IsTerminator reports whether control never falls through o.
func (o Op) IsTerminator() bool {
	return o == OpJmp || o == OpRet || o == OpHalt
}

// OperandKind classifies an instruction operand.
type OperandKind uint8

const (
	KindNone   OperandKind = iota
	KindIntReg             // integer register R0..R15
	KindFPReg              // floating point register F0..F15
	KindImm                // 64-bit immediate
	KindMem                // memory operand [base + index*scale + disp]
)

func (k OperandKind) String() string {
	switch k {
	case KindIntReg:
		return "ireg"
	case KindFPReg:
		return "freg"
	case KindImm:
		return "imm"
	case KindMem:
		return "mem"
	default:
		return "none"
	}
}

// Operand is one operand of an instruction.
type Operand struct {
	Kind  OperandKind
	Reg   uint8 // register number for KindIntReg/KindFPReg
	Imm   int64 // immediate value for KindImm
	Base  uint8 // memory: base register (RegNone for absolute)
	Index uint8 // memory: index register (RegNone for none)
	Scale uint8 // memory: index scale 1, 2, 4, or 8
	Disp  int32 // memory: displacement
}

// RegNone marks an absent base or index register in a memory operand.
const RegNone = 0xFF

// Register conventions.
const (
	NumIntRegs = 16
	NumFPRegs  = 16
	RegSP      = 15 // stack pointer
	RegBP      = 14 // frame/base pointer
)

// Reg returns an integer register operand.
func Reg(n uint8) Operand { return Operand{Kind: KindIntReg, Reg: n} }

// FReg returns a floating point register operand.
func FReg(n uint8) Operand { return Operand{Kind: KindFPReg, Reg: n} }

// Imm returns an immediate operand.
func Imm(v int64) Operand { return Operand{Kind: KindImm, Imm: v} }

// Mem returns a base+displacement memory operand.
func Mem(base uint8, disp int32) Operand {
	return Operand{Kind: KindMem, Base: base, Index: RegNone, Scale: 1, Disp: disp}
}

// MemIdx returns a base+index*scale+displacement memory operand.
func MemIdx(base, index, scale uint8, disp int32) Operand {
	return Operand{Kind: KindMem, Base: base, Index: index, Scale: scale, Disp: disp}
}

// MemAbs returns an absolute-address memory operand.
func MemAbs(addr int32) Operand {
	return Operand{Kind: KindMem, Base: RegNone, Index: RegNone, Scale: 1, Disp: addr}
}

func (o Operand) String() string {
	switch o.Kind {
	case KindIntReg:
		return fmt.Sprintf("r%d", o.Reg)
	case KindFPReg:
		return fmt.Sprintf("f%d", o.Reg)
	case KindImm:
		return fmt.Sprintf("$%d", o.Imm)
	case KindMem:
		s := "["
		if o.Base != RegNone {
			s += fmt.Sprintf("r%d", o.Base)
		}
		if o.Index != RegNone {
			s += fmt.Sprintf("+r%d*%d", o.Index, o.Scale)
		}
		if o.Disp != 0 || (o.Base == RegNone && o.Index == RegNone) {
			s += fmt.Sprintf("%+d", o.Disp)
		}
		return s + "]"
	default:
		return "<none>"
	}
}

// Inst is a decoded instruction: the Capstone-independent representation of
// the paper's decoder (§4.1), produced once and held in the decode cache.
type Inst struct {
	Op   Op
	Ops  []Operand
	Addr uint64 // code address of the first byte
	Len  int    // encoded length in bytes
}

func (in Inst) String() string {
	s := in.Op.String()
	for i, o := range in.Ops {
		if i == 0 {
			s += " " + o.String()
		} else {
			s += ", " + o.String()
		}
	}
	return s
}

// NumOperands returns the operand count each opcode expects; -1 means
// variable (not used by any current op).
func NumOperands(op Op) int {
	switch op {
	case OpRet, OpHalt, OpNop:
		return 0
	case OpSqrtsd, OpSqrtpd, OpFabs, OpFneg, OpFsin, OpFcos, OpFtan,
		OpFasin, OpFacos, OpFatan, OpFexp, OpFlog, OpFlog2, OpFlog10,
		OpFfloor, OpFceil, OpFround, OpFtrunc:
		return 2
	case OpFmaddsd, OpFatan2, OpFpow, OpFmod, OpFhypot:
		return 3
	case OpJmp, OpJe, OpJne, OpJl, OpJle, OpJg, OpJge, OpJb, OpJbe,
		OpJa, OpJae, OpJp, OpJnp, OpCall:
		return 1
	case OpPush, OpPop, OpNeg, OpNot, OpInc, OpDec,
		OpOutf, OpOuti, OpOutc, OpCallext, OpTrapc, OpCycles:
		return 1
	default:
		return 2
	}
}

// EffAddr computes the effective address of a memory operand against an
// integer register file: base + index*scale + displacement. It is THE
// addressing computation — the machine's executor and FPVM's operand binder
// both delegate here, so the two can never silently diverge.
func EffAddr(r *[NumIntRegs]int64, o *Operand) uint64 {
	var addr int64
	if o.Base != RegNone {
		addr = r[o.Base]
	}
	if o.Index != RegNone {
		addr += r[o.Index] * int64(o.Scale)
	}
	return uint64(addr + int64(o.Disp))
}

// IntReadMemOperands returns the memory operands an integer instruction
// reads (excluding pure writes). Shared by the static analyzer (sink
// detection, §4.2) and the machine's trap-on-NaN-load mode (§6.2).
func IntReadMemOperands(in *Inst) []Operand {
	var out []Operand
	add := func(o Operand) {
		if o.Kind == KindMem {
			out = append(out, o)
		}
	}
	switch in.Op {
	case OpMov:
		add(in.Ops[1]) // destination is written, not read
	case OpLea, OpNop, OpHalt, OpJmp, OpCall, OpRet:
		// lea computes an address without reading memory.
	case OpAdd, OpSub, OpImul, OpIdiv, OpAnd, OpOr,
		OpXor, OpShl, OpShr, OpSar, OpCmp, OpTest:
		add(in.Ops[0]) // read-modify-write destination
		add(in.Ops[1])
	case OpNeg, OpNot, OpInc, OpDec, OpPush, OpOuti, OpOutc:
		if len(in.Ops) > 0 {
			add(in.Ops[0])
		}
	}
	return out
}
