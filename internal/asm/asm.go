package asm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"fpvm/internal/isa"
)

// Assemble translates assembly text into a program. The syntax:
//
//	; comment (also #)
//	.data                     switch to the data section
//	vec:  .f64 1.0, 2.0       float64 data with a label
//	n:    .i64 42             int64 data
//	buf:  .zero 800           reserved zeroed bytes
//	.text                     switch back to code (the default)
//	.entry main               select the entry label
//	main: mov   r0, $0        instructions: mnemonic dst, src
//	loop: movsd f0, [r1+r0*8] memory operands like x64
//	      addsd f0, =1.5      float literals go to an automatic const pool
//	      fsin  f2, f0
//	      jl    loop          branch to label
//	      outf  f0            print
//	      halt
//
// Registers are r0–r15 (aliases: sp = r15, bp = r14) and f0–f15.
// Immediates are $n (decimal, 0x hex, or 'c'); bare identifiers in operand
// position resolve to label addresses (code or data).
func Assemble(src string) (*isa.Program, error) {
	b := NewBuilder()
	p := &parser{b: b, constPool: map[uint64]string{}}
	for i, raw := range strings.Split(src, "\n") {
		if err := p.line(raw); err != nil {
			return nil, fmt.Errorf("asm: line %d: %w", i+1, err)
		}
	}
	return b.Finish()
}

// MustAssemble is Assemble that panics on error, for tests and workloads
// whose sources are compile-time constants.
func MustAssemble(src string) *isa.Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

type parser struct {
	b         *Builder
	inData    bool
	constPool map[uint64]string // float bits → pool symbol
	nconst    int
}

var mnemonics = buildMnemonics()

func buildMnemonics() map[string]isa.Op {
	m := make(map[string]isa.Op)
	for op := isa.Op(1); ; op++ {
		if !op.Valid() {
			break
		}
		m[op.String()] = op
	}
	return m
}

func (p *parser) line(raw string) error {
	// Strip comments.
	if i := strings.IndexAny(raw, ";#"); i >= 0 {
		raw = raw[:i]
	}
	s := strings.TrimSpace(raw)
	if s == "" {
		return nil
	}
	// Leading label(s).
	for {
		i := strings.Index(s, ":")
		if i < 0 || strings.ContainsAny(s[:i], " \t[$=,") {
			break
		}
		name := s[:i]
		if p.inData {
			p.b.defineData(name, 0)
		} else {
			p.b.Label(name)
		}
		s = strings.TrimSpace(s[i+1:])
		if s == "" {
			return nil
		}
	}
	if strings.HasPrefix(s, ".") {
		return p.directive(s)
	}
	if p.inData {
		return fmt.Errorf("instruction %q inside .data", s)
	}
	return p.instruction(s)
}

func (p *parser) directive(s string) error {
	fields := strings.SplitN(s, " ", 2)
	name := fields[0]
	arg := ""
	if len(fields) == 2 {
		arg = strings.TrimSpace(fields[1])
	}
	switch name {
	case ".data":
		p.inData = true
	case ".text":
		p.inData = false
	case ".entry":
		if arg == "" {
			return fmt.Errorf(".entry needs a label")
		}
		p.b.SetEntry(arg)
	case ".f64":
		if !p.inData {
			return fmt.Errorf(".f64 outside .data")
		}
		for _, f := range splitOperands(arg) {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return fmt.Errorf("bad float %q", f)
			}
			p.b.DataF64("", v)
		}
	case ".i64":
		if !p.inData {
			return fmt.Errorf(".i64 outside .data")
		}
		for _, f := range splitOperands(arg) {
			v, err := parseInt(f)
			if err != nil {
				return fmt.Errorf("bad integer %q", f)
			}
			p.b.DataI64("", v)
		}
	case ".zero":
		if !p.inData {
			return fmt.Errorf(".zero outside .data")
		}
		n, err := parseInt(arg)
		if err != nil || n < 0 {
			return fmt.Errorf("bad .zero size %q", arg)
		}
		if have := uint64(len(p.b.data)); uint64(n) > isa.MaxMemSize-have {
			return &DataLimitError{Size: have + uint64(n), Limit: isa.MaxMemSize}
		}
		p.b.DataZero("", int(n))
	default:
		return fmt.Errorf("unknown directive %s", name)
	}
	return nil
}

func (p *parser) instruction(s string) error {
	fields := strings.SplitN(s, " ", 2)
	mn := strings.ToLower(fields[0])
	op, ok := mnemonics[mn]
	if !ok {
		return fmt.Errorf("unknown mnemonic %q", mn)
	}
	var args []string
	if len(fields) == 2 {
		args = splitOperands(fields[1])
	}
	if want := isa.NumOperands(op); len(args) != want {
		return fmt.Errorf("%s wants %d operands, got %d", mn, want, len(args))
	}

	refs := make([]operandRef, len(args))
	for i, a := range args {
		r, err := p.operand(a)
		if err != nil {
			return fmt.Errorf("operand %q: %w", a, err)
		}
		refs[i] = r
	}
	p.b.insts = append(p.b.insts, pendingInst{op, refs})
	return nil
}

// splitOperands splits on commas that are not inside brackets.
func splitOperands(s string) []string {
	var out []string
	depth := 0
	start := 0
	for i, c := range s {
		switch c {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	if t := strings.TrimSpace(s[start:]); t != "" {
		out = append(out, t)
	}
	return out
}

func (p *parser) operand(a string) (operandRef, error) {
	switch {
	case a == "":
		return operandRef{}, fmt.Errorf("empty operand")
	case strings.HasPrefix(a, "$"):
		v, err := parseInt(a[1:])
		if err != nil {
			return operandRef{}, err
		}
		return operandRef{op: isa.Imm(v)}, nil
	case strings.HasPrefix(a, "="):
		v, err := strconv.ParseFloat(a[1:], 64)
		if err != nil {
			return operandRef{}, fmt.Errorf("bad float literal: %w", err)
		}
		sym := p.poolConst(v)
		return operandRef{op: isa.MemAbs(0), dataLabel: sym}, nil
	case strings.HasPrefix(a, "&"):
		// Address-of a data symbol as an immediate.
		return operandRef{op: isa.Imm(0), dataLabel: a[1:]}, nil
	case strings.HasPrefix(a, "["):
		if !strings.HasSuffix(a, "]") {
			return operandRef{}, fmt.Errorf("unterminated memory operand")
		}
		return p.memOperand(a[1 : len(a)-1])
	}
	if r, ok := parseReg(a); ok {
		return operandRef{op: r}, nil
	}
	// Bare identifier: code label reference as an immediate.
	if isIdent(a) {
		return operandRef{op: isa.Imm(0), codeLabel: a}, nil
	}
	return operandRef{}, fmt.Errorf("cannot parse")
}

func (p *parser) poolConst(v float64) string {
	bits := math.Float64bits(v)
	if sym, ok := p.constPool[bits]; ok {
		return sym
	}
	sym := fmt.Sprintf("..const%d", p.nconst)
	p.nconst++
	p.constPool[bits] = sym
	p.b.DataF64(sym, v)
	return sym
}

func parseReg(a string) (isa.Operand, bool) {
	switch strings.ToLower(a) {
	case "sp":
		return isa.Reg(isa.RegSP), true
	case "bp":
		return isa.Reg(isa.RegBP), true
	}
	if len(a) >= 2 && (a[0] == 'r' || a[0] == 'R') {
		if n, err := strconv.Atoi(a[1:]); err == nil && n >= 0 && n < isa.NumIntRegs {
			return isa.Reg(uint8(n)), true
		}
	}
	if len(a) >= 2 && (a[0] == 'f' || a[0] == 'F') {
		if n, err := strconv.Atoi(a[1:]); err == nil && n >= 0 && n < isa.NumFPRegs {
			return isa.FReg(uint8(n)), true
		}
	}
	return isa.Operand{}, false
}

func isIdent(s string) bool {
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '.':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return s != ""
}

// memOperand parses the inside of [...]: sums of reg, reg*scale, integers,
// and data-symbol names.
func (p *parser) memOperand(s string) (operandRef, error) {
	o := isa.Operand{Kind: isa.KindMem, Base: isa.RegNone, Index: isa.RegNone, Scale: 1}
	ref := operandRef{}
	terms, signs := splitTerms(s)
	for i, t := range terms {
		t = strings.TrimSpace(t)
		neg := signs[i]
		switch {
		case t == "":
			return ref, fmt.Errorf("empty term")
		case strings.Contains(t, "*"):
			parts := strings.SplitN(t, "*", 2)
			r, ok := parseReg(strings.TrimSpace(parts[0]))
			if !ok || r.Kind != isa.KindIntReg {
				return ref, fmt.Errorf("bad index register %q", parts[0])
			}
			sc, err := parseInt(strings.TrimSpace(parts[1]))
			if err != nil || (sc != 1 && sc != 2 && sc != 4 && sc != 8) {
				return ref, fmt.Errorf("bad scale %q", parts[1])
			}
			if neg {
				return ref, fmt.Errorf("negative index term")
			}
			if o.Index != isa.RegNone {
				return ref, fmt.Errorf("two index registers")
			}
			o.Index = r.Reg
			o.Scale = uint8(sc)
		default:
			if r, ok := parseReg(t); ok {
				if r.Kind != isa.KindIntReg {
					return ref, fmt.Errorf("FP register in address")
				}
				if neg {
					return ref, fmt.Errorf("negative register term")
				}
				if o.Base == isa.RegNone {
					o.Base = r.Reg
				} else if o.Index == isa.RegNone {
					o.Index = r.Reg
					o.Scale = 1
				} else {
					return ref, fmt.Errorf("too many registers")
				}
				continue
			}
			if v, err := parseInt(t); err == nil {
				if neg {
					v = -v
				}
				o.Disp += int32(v)
				continue
			}
			if isIdent(t) {
				if neg {
					return ref, fmt.Errorf("negative symbol term")
				}
				if ref.dataLabel != "" {
					return ref, fmt.Errorf("two symbols in address")
				}
				ref.dataLabel = t
				continue
			}
			return ref, fmt.Errorf("bad term %q", t)
		}
	}
	ref.op = o
	return ref, nil
}

// splitTerms splits "a+b-c" into terms with sign flags.
func splitTerms(s string) (terms []string, neg []bool) {
	start := 0
	curNeg := false
	for i := 0; i < len(s); i++ {
		if s[i] == '+' || s[i] == '-' {
			if i > start {
				terms = append(terms, s[start:i])
				neg = append(neg, curNeg)
			}
			curNeg = s[i] == '-'
			start = i + 1
		}
	}
	terms = append(terms, s[start:])
	neg = append(neg, curNeg)
	return terms, neg
}

func parseInt(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if len(s) >= 3 && s[0] == '\'' && s[len(s)-1] == '\'' {
		r := []rune(s[1 : len(s)-1])
		if len(r) == 1 {
			return int64(r[0]), nil
		}
		if s[1:len(s)-1] == "\\n" {
			return '\n', nil
		}
		return 0, fmt.Errorf("bad char literal %q", s)
	}
	return strconv.ParseInt(s, 0, 64)
}
