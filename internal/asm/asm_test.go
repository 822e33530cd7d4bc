package asm

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"fpvm/internal/isa"
)

func mustAsm(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

func disasm(t *testing.T, p *isa.Program) []isa.Inst {
	t.Helper()
	insts, err := p.Disassemble()
	if err != nil {
		t.Fatal(err)
	}
	return insts
}

func TestBasicProgram(t *testing.T) {
	p := mustAsm(t, `
		mov r0, $42
		outi r0
		halt
	`)
	insts := disasm(t, p)
	if len(insts) != 3 {
		t.Fatalf("got %d instructions", len(insts))
	}
	if insts[0].Op != isa.OpMov || insts[0].Ops[1].Imm != 42 {
		t.Errorf("inst 0: %v", insts[0])
	}
	if insts[2].Op != isa.OpHalt {
		t.Errorf("inst 2: %v", insts[2])
	}
}

func TestLabelsResolve(t *testing.T) {
	p := mustAsm(t, `
	start:
		jmp end
		nop
	end:
		halt
	`)
	insts := disasm(t, p)
	// jmp target must equal the halt's address.
	if uint64(insts[0].Ops[0].Imm) != insts[2].Addr {
		t.Errorf("jmp target %d, halt at %d", insts[0].Ops[0].Imm, insts[2].Addr)
	}
	if p.Symbols["start"] != 0 {
		t.Errorf("start symbol = %d", p.Symbols["start"])
	}
	if p.Symbols["end"] != insts[2].Addr {
		t.Error("end symbol wrong")
	}
}

func TestDataDirectives(t *testing.T) {
	p := mustAsm(t, `
	.data
	a: .f64 1.5, -2.25
	b: .i64 7, -8
	c: .zero 16
	.text
		halt
	`)
	if len(p.Data) != 16+16+16 {
		t.Fatalf("data length %d", len(p.Data))
	}
	if got := math.Float64frombits(le64(p.Data[0:])); got != 1.5 {
		t.Errorf("a[0] = %v", got)
	}
	if got := math.Float64frombits(le64(p.Data[8:])); got != -2.25 {
		t.Errorf("a[1] = %v", got)
	}
	if got := int64(le64(p.Data[16:])); got != 7 {
		t.Errorf("b[0] = %d", got)
	}
	if got := int64(le64(p.Data[24:])); got != -8 {
		t.Errorf("b[1] = %d", got)
	}
	for i := 32; i < 48; i++ {
		if p.Data[i] != 0 {
			t.Error(".zero region not zeroed")
		}
	}
	// Symbols point at data-base-relative addresses.
	if p.Symbols["a"] != p.DataBase {
		t.Errorf("a at %#x", p.Symbols["a"])
	}
	if p.Symbols["b"] != p.DataBase+16 {
		t.Errorf("b at %#x", p.Symbols["b"])
	}
}

func le64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func TestMemoryOperandForms(t *testing.T) {
	p := mustAsm(t, `
	.data
	tbl: .zero 64
	.text
		mov r0, [r1]
		mov r0, [r1+8]
		mov r0, [r1-8]
		mov r0, [r1+r2*4]
		mov r0, [r1+r2*8+24]
		mov r0, [tbl]
		mov r0, [tbl+16]
		mov r0, [tbl+r3*8]
		halt
	`)
	insts := disasm(t, p)
	check := func(i int, base, index uint8, scale uint8, disp int32) {
		t.Helper()
		o := insts[i].Ops[1]
		if o.Base != base || o.Index != index || o.Scale != scale || o.Disp != disp {
			t.Errorf("inst %d operand %v, want base=%d idx=%d scale=%d disp=%d",
				i, o, base, index, scale, disp)
		}
	}
	tbl := int32(p.Symbols["tbl"])
	check(0, 1, isa.RegNone, 1, 0)
	check(1, 1, isa.RegNone, 1, 8)
	check(2, 1, isa.RegNone, 1, -8)
	check(3, 1, 2, 4, 0)
	check(4, 1, 2, 8, 24)
	check(5, isa.RegNone, isa.RegNone, 1, tbl)
	check(6, isa.RegNone, isa.RegNone, 1, tbl+16)
	check(7, isa.RegNone, 3, 8, tbl)
}

func TestFloatLiteralPool(t *testing.T) {
	p := mustAsm(t, `
		movsd f0, =1.5
		movsd f1, =1.5
		movsd f2, =2.5
		halt
	`)
	// 1.5 is deduplicated: pool has two entries.
	if len(p.Data) != 16 {
		t.Fatalf("const pool size %d, want 16", len(p.Data))
	}
	insts := disasm(t, p)
	if insts[0].Ops[1].Disp != insts[1].Ops[1].Disp {
		t.Error("identical literals should share a pool slot")
	}
	if insts[0].Ops[1].Disp == insts[2].Ops[1].Disp {
		t.Error("different literals should not share")
	}
}

func TestRegisterAliases(t *testing.T) {
	p := mustAsm(t, `
		mov sp, $100
		mov bp, sp
		halt
	`)
	insts := disasm(t, p)
	if insts[0].Ops[0].Reg != isa.RegSP {
		t.Error("sp alias")
	}
	if insts[1].Ops[0].Reg != isa.RegBP || insts[1].Ops[1].Reg != isa.RegSP {
		t.Error("bp alias")
	}
}

func TestAddressOfOperator(t *testing.T) {
	p := mustAsm(t, `
	.data
	buf: .zero 8
	.text
		mov r0, &buf
		halt
	`)
	insts := disasm(t, p)
	if uint64(insts[0].Ops[1].Imm) != p.Symbols["buf"] {
		t.Errorf("&buf = %d, symbol at %d", insts[0].Ops[1].Imm, p.Symbols["buf"])
	}
}

func TestEntryDirective(t *testing.T) {
	p := mustAsm(t, `
	.entry main
	helper:
		ret
	main:
		halt
	`)
	if p.Entry != p.Symbols["main"] {
		t.Errorf("entry %#x, main %#x", p.Entry, p.Symbols["main"])
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	mustAsm(t, `
	; full line comment
	# hash comment

		mov r0, $1   ; trailing comment
		halt         # another
	`)
}

func TestCharLiterals(t *testing.T) {
	p := mustAsm(t, `
		outc $'A'
		outc $'\n'
		halt
	`)
	insts := disasm(t, p)
	if insts[0].Ops[0].Imm != 'A' {
		t.Errorf("'A' = %d", insts[0].Ops[0].Imm)
	}
	if insts[1].Ops[0].Imm != '\n' {
		t.Errorf("newline = %d", insts[1].Ops[0].Imm)
	}
}

func TestHexImmediates(t *testing.T) {
	p := mustAsm(t, `
		mov r0, $0x7FF0000000000001
		mov r1, $-0x10
		halt
	`)
	insts := disasm(t, p)
	if insts[0].Ops[1].Imm != 0x7FF0000000000001 {
		t.Error("hex immediate")
	}
	if insts[1].Ops[1].Imm != -16 {
		t.Error("negative hex immediate")
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		src, wantSub string
	}{
		{"bogus r0, r1", "unknown mnemonic"},
		{"mov r0", "wants 2 operands"},
		{"mov r0, r1, r2", "wants 2 operands"},
		{"jmp nowhere\nhalt", "undefined label"},
		{"mov r99, $1", "undefined label"}, // r99 parses as an identifier
		{".data\nx: .f64 abc", "bad float"},
		{".f64 1.0", ".f64 outside .data"},
		{"mov r0, [r1+r2+r3]", "too many registers"},
		{"mov r0, [r1*3]", "bad scale"},
		{"mov r0, [", "unterminated"},
		{".directive", "unknown directive"},
		{"dup:\ndup:\nhalt", "duplicate label"},
		{".data\nmov r0, $1", "inside .data"},
	}
	for _, c := range cases {
		_, err := Assemble(c.src)
		if err == nil {
			t.Errorf("%q should fail", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%q: error %q does not mention %q", c.src, err, c.wantSub)
		}
	}
}

func TestBuilderAPI(t *testing.T) {
	b := NewBuilder()
	b.DataF64("x", 2.5)
	b.Label("main")
	b.Isym(isa.OpMovsd, "x", 1, isa.FReg(0), isa.MemAbs(0))
	b.I(isa.OpAddsd, isa.FReg(0), isa.FReg(0))
	b.Br(isa.OpJmp, "done")
	b.I(isa.OpNop)
	b.Label("done")
	b.I(isa.OpHalt)
	b.SetEntry("main")
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	insts := disasm(t, p)
	if len(insts) != 5 {
		t.Fatalf("%d instructions", len(insts))
	}
	if uint64(insts[0].Ops[1].Disp) != p.Symbols["x"] {
		t.Error("data symbol not resolved")
	}
	if uint64(insts[2].Ops[0].Imm) != insts[4].Addr {
		t.Error("branch label not resolved")
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder()
	b.Br(isa.OpJmp, "missing")
	if _, err := b.Finish(); err == nil {
		t.Error("undefined label should fail")
	}

	b2 := NewBuilder()
	b2.Label("a")
	b2.Label("a")
	b2.I(isa.OpHalt)
	if _, err := b2.Finish(); err == nil {
		t.Error("duplicate label should fail")
	}

	b3 := NewBuilder()
	b3.Isym(isa.OpMovsd, "nosym", 1, isa.FReg(0), isa.MemAbs(0))
	if _, err := b3.Finish(); err == nil {
		t.Error("undefined data symbol should fail")
	}
}

func TestMustAssemblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAssemble should panic on bad input")
		}
	}()
	MustAssemble("bogus")
}

func TestLineNumbersInErrors(t *testing.T) {
	_, err := Assemble("nop\nnop\nbogus\n")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error should cite line 3: %v", err)
	}
}

func TestSplitOperandsBracketAware(t *testing.T) {
	got := splitOperands("r0, [r1+r2*8], $5")
	if len(got) != 3 || got[1] != "[r1+r2*8]" {
		t.Errorf("splitOperands = %q", got)
	}
}

// TestDataCeiling pins the data-segment bound: a .zero, or a data segment,
// past isa.MaxMemSize is refused with a *DataLimitError before anything that
// size is allocated.
func TestDataCeiling(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Assemble(".data\nbuf: .zero 1099511627776\n.text\nhalt\n")
	runtime.ReadMemStats(&after)
	var le *DataLimitError
	if !errors.As(err, &le) {
		t.Fatalf("1 TiB .zero: err = %v, want *DataLimitError", err)
	}
	if le.Size != 1<<40 || le.Limit != isa.MaxMemSize {
		t.Errorf("DataLimitError = %+v", *le)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("refused .zero still allocated %d bytes", got)
	}

	// The bound is on the whole segment, not one directive.
	src := fmt.Sprintf(".data\nx: .f64 1.0\nbuf: .zero %d\n.text\nhalt\n", isa.MaxMemSize)
	if _, err := Assemble(src); !errors.As(err, &le) || le.Size != isa.MaxMemSize+8 {
		t.Errorf("segment over the ceiling: err = %v", err)
	}
	b := NewBuilder()
	b.DataF64("x", 1)
	b.DataZero("buf", isa.MaxMemSize)
	b.I(isa.OpHalt)
	if _, err := b.Finish(); !errors.As(err, &le) {
		t.Errorf("Builder.DataZero over the ceiling: err = %v", err)
	}
	if prog, err := Assemble(".data\nbuf: .zero 4096\n.text\nhalt\n"); err != nil || len(prog.Data) != 4096 {
		t.Errorf(".zero under the ceiling: %v", err)
	}
}
