package isa

import (
	"encoding/binary"
	"fmt"
)

// Binary encoding (little-endian):
//
//	[opcode u8] [operand]*
//
// where each operand is
//
//	[kind u8] payload
//	  KindIntReg: [reg u8]
//	  KindFPReg:  [reg u8]
//	  KindImm:    [imm i64]           (8 bytes)
//	  KindMem:    [base u8][index u8][scale u8][disp i32]
//
// Instructions are therefore 1–28 bytes long — variable length like x64,
// which is what makes the decode cache (§4.1) worth modeling.

// ErrDecode is returned (wrapped) for malformed instruction bytes.
type DecodeError struct {
	Addr   uint64
	Reason string
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("isa: decode error at %#x: %s", e.Addr, e.Reason)
}

// Encode appends the encoding of inst to buf and returns the result.
func Encode(buf []byte, inst Inst) ([]byte, error) {
	if !inst.Op.Valid() {
		return buf, fmt.Errorf("isa: invalid opcode %d", inst.Op)
	}
	if want := NumOperands(inst.Op); len(inst.Ops) != want {
		return buf, fmt.Errorf("isa: %s wants %d operands, got %d", inst.Op, want, len(inst.Ops))
	}
	buf = append(buf, byte(inst.Op))
	for _, o := range inst.Ops {
		buf = append(buf, byte(o.Kind))
		switch o.Kind {
		case KindIntReg:
			if o.Reg >= NumIntRegs {
				return buf, fmt.Errorf("isa: bad integer register r%d", o.Reg)
			}
			buf = append(buf, o.Reg)
		case KindFPReg:
			if o.Reg >= NumFPRegs {
				return buf, fmt.Errorf("isa: bad FP register f%d", o.Reg)
			}
			buf = append(buf, o.Reg)
		case KindImm:
			buf = binary.LittleEndian.AppendUint64(buf, uint64(o.Imm))
		case KindMem:
			if o.Scale != 1 && o.Scale != 2 && o.Scale != 4 && o.Scale != 8 {
				return buf, fmt.Errorf("isa: bad scale %d", o.Scale)
			}
			buf = append(buf, o.Base, o.Index, o.Scale)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(o.Disp))
		default:
			return buf, fmt.Errorf("isa: bad operand kind %d", o.Kind)
		}
	}
	return buf, nil
}

// EncodedLen returns the encoded length of inst in bytes.
func EncodedLen(inst Inst) int {
	n := 1
	for _, o := range inst.Ops {
		n++ // kind byte
		switch o.Kind {
		case KindIntReg, KindFPReg:
			n++
		case KindImm:
			n += 8
		case KindMem:
			n += 7
		}
	}
	return n
}

// Decode decodes one instruction from code at offset addr. The returned
// Inst records its address and encoded length.
func Decode(code []byte, addr uint64) (Inst, error) {
	if addr >= uint64(len(code)) {
		return Inst{}, &DecodeError{addr, "address beyond code"}
	}
	p := addr
	op := Op(code[p])
	p++
	if !op.Valid() {
		return Inst{}, &DecodeError{addr, fmt.Sprintf("invalid opcode %d", code[addr])}
	}
	n := NumOperands(op)
	inst := Inst{Op: op, Addr: addr, Ops: make([]Operand, 0, n)}
	for i := 0; i < n; i++ {
		if p >= uint64(len(code)) {
			return Inst{}, &DecodeError{addr, "truncated operand kind"}
		}
		kind := OperandKind(code[p])
		p++
		var o Operand
		o.Kind = kind
		switch kind {
		case KindIntReg, KindFPReg:
			if p >= uint64(len(code)) {
				return Inst{}, &DecodeError{addr, "truncated register"}
			}
			o.Reg = code[p]
			p++
			limit := uint8(NumIntRegs)
			if kind == KindFPReg {
				limit = NumFPRegs
			}
			if o.Reg >= limit {
				return Inst{}, &DecodeError{addr, fmt.Sprintf("register %d out of range", o.Reg)}
			}
		case KindImm:
			if p+8 > uint64(len(code)) {
				return Inst{}, &DecodeError{addr, "truncated immediate"}
			}
			o.Imm = int64(binary.LittleEndian.Uint64(code[p:]))
			p += 8
		case KindMem:
			if p+7 > uint64(len(code)) {
				return Inst{}, &DecodeError{addr, "truncated memory operand"}
			}
			o.Base = code[p]
			o.Index = code[p+1]
			o.Scale = code[p+2]
			o.Disp = int32(binary.LittleEndian.Uint32(code[p+3:]))
			p += 7
			if o.Base != RegNone && o.Base >= NumIntRegs {
				return Inst{}, &DecodeError{addr, "memory base register out of range"}
			}
			if o.Index != RegNone && o.Index >= NumIntRegs {
				return Inst{}, &DecodeError{addr, "memory index register out of range"}
			}
			if o.Scale != 1 && o.Scale != 2 && o.Scale != 4 && o.Scale != 8 {
				return Inst{}, &DecodeError{addr, fmt.Sprintf("bad scale %d", o.Scale)}
			}
		default:
			return Inst{}, &DecodeError{addr, fmt.Sprintf("bad operand kind %d", kind)}
		}
		inst.Ops = append(inst.Ops, o)
	}
	inst.Len = int(p - addr)
	return inst, nil
}

// MaxMemSize is the largest guest memory a machine accepts, in bytes. A data
// segment, which must fit in guest memory, can never be larger, so the
// assembler refuses one that is before allocating it.
const MaxMemSize = 64 << 20

// Program is an encoded program image: code plus an initial data segment and
// entry metadata, the unit that the assembler produces, the static analyzer
// consumes, and the machine loads. It stands in for an ELF binary.
type Program struct {
	Code     []byte
	Data     []byte            // initial contents of the data segment
	DataBase uint64            // load address of the data segment
	Entry    uint64            // entry point address in code
	Symbols  map[string]uint64 // optional label → code/data address map
}

// Clone returns a deep copy of p (used by the patcher, which rewrites code).
func (p *Program) Clone() *Program {
	q := &Program{
		Code:     append([]byte(nil), p.Code...),
		Data:     append([]byte(nil), p.Data...),
		DataBase: p.DataBase,
		Entry:    p.Entry,
	}
	if p.Symbols != nil {
		q.Symbols = make(map[string]uint64, len(p.Symbols))
		for k, v := range p.Symbols {
			q.Symbols[k] = v
		}
	}
	return q
}

// Disassemble renders the whole code segment for debugging and tests.
func (p *Program) Disassemble() ([]Inst, error) {
	var out []Inst
	for addr := uint64(0); addr < uint64(len(p.Code)); {
		in, err := Decode(p.Code, addr)
		if err != nil {
			return out, err
		}
		out = append(out, in)
		addr += uint64(in.Len)
	}
	return out, nil
}
