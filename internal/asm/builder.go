// Package asm provides the toolchain for authoring programs in the
// simulator's ISA: a programmatic Builder and a two-pass text assembler.
// The paper's workloads (FBench, Lorenz, NAS kernels, ...) are written in
// this assembly; the static analyzer and patcher consume its output.
package asm

import (
	"encoding/binary"
	"fmt"
	"math"

	"fpvm/internal/isa"
)

// Builder assembles a program incrementally: instructions with symbolic
// label references, plus a data segment. Call Finish to resolve labels and
// produce the encoded isa.Program.
type Builder struct {
	insts    []pendingInst
	labels   map[string]int // label → instruction index (code labels)
	data     []byte
	dataSyms map[string]uint64 // data label → offset within data
	dataBase uint64
	entry    string
	errs     []error
}

type pendingInst struct {
	op  isa.Op
	ops []operandRef
}

// operandRef is an operand that may reference a label.
type operandRef struct {
	op        isa.Operand
	codeLabel string // if set, resolve to code address into Imm
	dataLabel string // if set, add data address: Imm ← addr, Mem ← Disp
}

// NewBuilder returns an empty Builder with the default data base address.
func NewBuilder() *Builder {
	return &Builder{
		labels:   make(map[string]int),
		dataSyms: make(map[string]uint64),
		dataBase: 0x1000,
	}
}

// SetDataBase overrides the data segment load address.
func (b *Builder) SetDataBase(base uint64) { b.dataBase = base }

// SetEntry selects the entry label (defaults to the first instruction).
func (b *Builder) SetEntry(label string) { b.entry = label }

// Label defines a code label at the current position.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("asm: duplicate label %q", name))
	}
	b.labels[name] = len(b.insts)
}

// I appends an instruction with plain operands.
func (b *Builder) I(op isa.Op, ops ...isa.Operand) {
	refs := make([]operandRef, len(ops))
	for i, o := range ops {
		refs[i] = operandRef{op: o}
	}
	b.insts = append(b.insts, pendingInst{op, refs})
}

// Br appends a branch/call to a code label.
func (b *Builder) Br(op isa.Op, label string) {
	b.insts = append(b.insts, pendingInst{op, []operandRef{{op: isa.Imm(0), codeLabel: label}}})
}

// LabelImm appends an instruction whose immediate operand is a code label
// address (e.g. mov r0, $label).
func (b *Builder) LabelImm(op isa.Op, dst isa.Operand, label string) {
	b.insts = append(b.insts, pendingInst{op, []operandRef{
		{op: dst}, {op: isa.Imm(0), codeLabel: label},
	}})
}

// MemSym returns a memory operand addressing dataLabel+disp (absolute).
func MemSym(disp int32) isa.Operand { return isa.MemAbs(disp) }

// Isym appends an instruction where operand index symIdx addresses the named
// data symbol (absolute for Imm, added to Disp for Mem).
func (b *Builder) Isym(op isa.Op, sym string, symIdx int, ops ...isa.Operand) {
	refs := make([]operandRef, len(ops))
	for i, o := range ops {
		refs[i] = operandRef{op: o}
		if i == symIdx {
			refs[i].dataLabel = sym
		}
	}
	b.insts = append(b.insts, pendingInst{op, refs})
}

// DataF64 appends float64 values at a named data symbol; returns the offset.
func (b *Builder) DataF64(name string, vals ...float64) uint64 {
	off := b.defineData(name, 8*len(vals))
	for _, v := range vals {
		b.data = binary.LittleEndian.AppendUint64(b.data, math.Float64bits(v))
	}
	return off
}

// DataI64 appends int64 values at a named data symbol; returns the offset.
func (b *Builder) DataI64(name string, vals ...int64) uint64 {
	off := b.defineData(name, 8*len(vals))
	for _, v := range vals {
		b.data = binary.LittleEndian.AppendUint64(b.data, uint64(v))
	}
	return off
}

// DataZero reserves n zero bytes at a named data symbol; returns the offset.
// A reservation that would take the data segment past isa.MaxMemSize is
// recorded as a *DataLimitError (returned by Finish) and allocates nothing.
func (b *Builder) DataZero(name string, n int) uint64 {
	off := b.defineData(name, n)
	if n > 0 && uint64(n) <= isa.MaxMemSize-uint64(len(b.data)) {
		b.data = append(b.data, make([]byte, n)...)
	}
	return off
}

// DataLimitError reports a data segment larger than isa.MaxMemSize, the
// largest guest memory a machine accepts. No machine could load such a
// program, so the assembler refuses it before allocating the segment.
type DataLimitError struct {
	Size  uint64 // the data segment size the source asked for, in bytes
	Limit uint64 // isa.MaxMemSize
}

func (e *DataLimitError) Error() string {
	return fmt.Sprintf("data segment of %d bytes exceeds the %d-byte guest memory maximum", e.Size, e.Limit)
}

func (b *Builder) defineData(name string, size int) uint64 {
	if name != "" {
		if _, dup := b.dataSyms[name]; dup {
			b.errs = append(b.errs, fmt.Errorf("asm: duplicate data symbol %q", name))
		}
		b.dataSyms[name] = uint64(len(b.data))
	}
	if size < 0 || uint64(size) > isa.MaxMemSize-uint64(len(b.data)) {
		b.errs = append(b.errs, &DataLimitError{Size: uint64(len(b.data)) + uint64(size), Limit: isa.MaxMemSize})
	}
	return uint64(len(b.data))
}

// DataAddr returns the absolute address of a data symbol (after layout; safe
// to call any time since the data base is fixed).
func (b *Builder) DataAddr(name string) (uint64, bool) {
	off, ok := b.dataSyms[name]
	return b.dataBase + off, ok
}

// Finish resolves labels and encodes the program.
func (b *Builder) Finish() (*isa.Program, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	// Pass 1: compute instruction addresses (sizes are label-independent).
	addrs := make([]uint64, len(b.insts)+1)
	var pc uint64
	for i, pi := range b.insts {
		addrs[i] = pc
		inst := isa.Inst{Op: pi.op, Ops: make([]isa.Operand, len(pi.ops))}
		for j, r := range pi.ops {
			inst.Ops[j] = r.op
		}
		pc += uint64(isa.EncodedLen(inst))
	}
	addrs[len(b.insts)] = pc

	labelAddr := func(name string) (uint64, error) {
		if idx, ok := b.labels[name]; ok {
			return addrs[idx], nil
		}
		return 0, fmt.Errorf("asm: undefined label %q", name)
	}

	// Pass 2: resolve and encode.
	var code []byte
	symbols := make(map[string]uint64, len(b.labels)+len(b.dataSyms))
	for name, idx := range b.labels {
		symbols[name] = addrs[idx]
	}
	for name, off := range b.dataSyms {
		symbols[name] = b.dataBase + off
	}
	for i, pi := range b.insts {
		inst := isa.Inst{Op: pi.op, Ops: make([]isa.Operand, len(pi.ops))}
		for j, r := range pi.ops {
			o := r.op
			if r.codeLabel != "" {
				a, err := labelAddr(r.codeLabel)
				if err != nil {
					return nil, err
				}
				o.Imm = int64(a)
			}
			if r.dataLabel != "" {
				off, ok := b.dataSyms[r.dataLabel]
				if !ok {
					return nil, fmt.Errorf("asm: undefined data symbol %q", r.dataLabel)
				}
				addr := b.dataBase + off
				switch o.Kind {
				case isa.KindImm:
					o.Imm += int64(addr)
				case isa.KindMem:
					o.Disp += int32(addr)
				default:
					return nil, fmt.Errorf("asm: data symbol on %v operand", o.Kind)
				}
			}
			inst.Ops[j] = o
		}
		var err error
		code, err = isa.Encode(code, inst)
		if err != nil {
			return nil, fmt.Errorf("asm: instruction %d (%v): %w", i, inst.Op, err)
		}
	}

	entry := uint64(0)
	if b.entry != "" {
		a, err := labelAddr(b.entry)
		if err != nil {
			return nil, err
		}
		entry = a
	}
	return &isa.Program{
		Code:     code,
		Data:     append([]byte(nil), b.data...),
		DataBase: b.dataBase,
		Entry:    entry,
		Symbols:  symbols,
	}, nil
}
