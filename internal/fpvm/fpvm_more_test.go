package fpvm

import (
	"bytes"
	"math"
	"testing"

	"fpvm/internal/arith"
	"fpvm/internal/asm"
	"fpvm/internal/fpu"
	"fpvm/internal/machine"
)

// TestSpyAllInstructionKinds drives FPSpy through compares, conversions,
// and int→fp conversions (the non-arith trap kinds).
func TestSpyAllInstructionKinds(t *testing.T) {
	src := `
.data
third: .f64 0.0
.text
	movsd f0, =1.0
	divsd f0, =3.0        ; arith rounding
	movsd [third], f0
	movsd f1, =0.5
	ucomisd f0, f1        ; compare: exact, no trap... use sNaN path instead
	cvttsd2si r0, f0      ; toInt: inexact → traps
	outi r0
	cvtsi2sd f2, $3       ; wait: cvtsi2sd src must be reg/mem
	halt
`
	_ = src
	prog := asm.MustAssemble(`
.data
big: .i64 9007199254740993    ; 2^53 + 1: cvtsi2sd is inexact
.text
	movsd f0, =1.0
	divsd f0, =3.0        ; PE
	cvttsd2si r0, f0      ; PE on conversion
	outi r0
	mov r1, [big]
	cvtsi2sd f2, r1       ; PE on int→fp
	outf f2
	halt
	`)
	var out bytes.Buffer
	m, _ := machine.New(prog, &out)
	spy := AttachSpy(m)
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if spy.Stats.ByOp["divsd"] != 1 || spy.Stats.ByOp["cvttsd2si"] != 1 || spy.Stats.ByOp["cvtsi2sd"] != 1 {
		t.Fatalf("op counts %v", spy.Stats.ByOp)
	}
	if out.String() != "0\n9.007199254740992e+15\n" {
		t.Fatalf("output %q", out.String())
	}
}

// TestSpyCompareWithSNaN drives the compare retirement path.
func TestSpyCompareWithSNaN(t *testing.T) {
	prog := asm.MustAssemble(`
.data
snan: .i64 0x7FF0000000000123
.text
	movsd f0, [snan]
	movsd f1, =1.0
	ucomisd f0, f1        ; IE on sNaN, unordered result
	jp unord
	outi $0
	halt
unord:
	outi $1
	halt
	`)
	var out bytes.Buffer
	m, _ := machine.New(prog, &out)
	spy := AttachSpy(m)
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if out.String() != "1\n" {
		t.Fatalf("sNaN compare under spy: %q", out.String())
	}
	if spy.Stats.ByOp["ucomisd"] != 1 {
		t.Fatal("compare event not recorded")
	}
}

// TestDemoteOperandIndexedMemory drives the correctness handler across
// register, indexed-memory, and packed operand shapes.
func TestDemoteOperandIndexedMemory(t *testing.T) {
	src := `
.data
a: .f64 1.0
arr: .zero 32
.text
	movsd f0, [a]
	divsd f0, =3.0        ; boxed
	mov r1, $2
	movsd [arr+r1*8], f0  ; box at arr[2]
	mov r0, [arr+r1*8]    ; sink (indexed)
	outi r0
	halt
`
	prog := asm.MustAssemble(src)
	insts, _ := prog.Disassemble()
	var sink uint64
	for _, in := range insts {
		if in.Op.String() == "mov" && in.Ops[1].Kind.String() == "mem" && in.Ops[1].Index != 0xFF {
			sink = in.Addr
		}
	}
	var out bytes.Buffer
	m, _ := machine.New(prog, &out)
	vm := Attach(m, Config{System: arith.Vanilla{}})
	m.SetCorrectnessSite(sink, 1)
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if vm.Stats.Demotions == 0 {
		t.Fatal("indexed demotion did not happen")
	}
	want := int64(math.Float64bits(1.0 / 3.0))
	if out.String() != itoa(want)+"\n" {
		t.Fatalf("got %q want %d", out.String(), want)
	}
}

// TestDemoteOperandPacked: a packed instruction at a correctness site
// demotes both lanes.
func TestDemoteOperandPacked(t *testing.T) {
	src := `
.data
a: .f64 1.0, 2.0
buf: .zero 16
mask: .f64 -0.0, -0.0
.text
	movapd f0, [a]
	divpd f0, =3.0        ; wait: packed div with 8-byte const reads 16 bytes
	halt
`
	_ = src // the const pool is only 8 bytes; build packed boxes via divsd twice
	prog := asm.MustAssemble(`
.data
a: .f64 1.0
mask: .f64 -0.0, -0.0
.text
	movsd f0, [a]
	divsd f0, =3.0        ; lane 0 boxed
	movsd f1, [a]
	divsd f1, =7.0
	; build a packed register with two boxes: f0 lane0 box; copy to lane1 via memory
	sub sp, $16
	movsd [sp], f0
	movsd [sp+8], f1
	movapd f2, [sp]
	xorpd f2, [mask]      ; fp-bitwise sink: would corrupt boxes if undemoted
	outf f2
	halt
	`)
	insts, _ := prog.Disassemble()
	var site uint64
	for _, in := range insts {
		if in.Op.String() == "xorpd" {
			site = in.Addr
		}
	}
	var out bytes.Buffer
	m, _ := machine.New(prog, &out)
	vm := Attach(m, Config{System: arith.Vanilla{}})
	m.SetCorrectnessSite(site, 1)
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if vm.Stats.Demotions < 2 {
		t.Fatalf("demotions = %d, want both lanes", vm.Stats.Demotions)
	}
	// The sign flip applied to the *demoted* IEEE value: -(1/3).
	if out.String() != "-0.3333333333333333\n" {
		t.Fatalf("xorpd of demoted value printed %q", out.String())
	}
}

// TestNativeFlagsAllOps sanity-checks the patch-mode postcondition oracle,
// the flags of arith.Float64Op, across the whole op set.
func TestNativeFlagsAllOps(t *testing.T) {
	cases := []struct {
		op    arith.Op
		args  []float64
		exact bool
	}{
		{arith.OpAdd, []float64{1.0, 2.0}, true},
		{arith.OpAdd, []float64{0.1, 0.2}, false},
		{arith.OpSub, []float64{3.0, 1.0}, true},
		{arith.OpMul, []float64{2.0, 4.0}, true},
		{arith.OpDiv, []float64{1.0, 3.0}, false},
		{arith.OpSqrt, []float64{4.0}, true},
		{arith.OpFMA, []float64{2.0, 3.0, 4.0}, true},
		{arith.OpMin, []float64{1.0, 2.0}, true},
		{arith.OpMax, []float64{1.0, 2.0}, true},
		{arith.OpAbs, []float64{-1.0}, true},
		{arith.OpNeg, []float64{1.0}, true},
		{arith.OpSin, []float64{1.0}, false},
		{arith.OpCos, []float64{1.0}, false},
		{arith.OpTan, []float64{1.0}, false},
		{arith.OpAsin, []float64{0.5}, false},
		{arith.OpAcos, []float64{0.5}, false},
		{arith.OpAtan, []float64{0.5}, false},
		{arith.OpAtan2, []float64{1.0, 2.0}, false},
		{arith.OpExp, []float64{1.0}, false},
		{arith.OpLog, []float64{2.0}, false},
		{arith.OpLog2, []float64{8.0}, true},
		{arith.OpLog10, []float64{3.0}, false},
		{arith.OpPow, []float64{2.0, 10.0}, true},
		{arith.OpMod, []float64{7.0, 2.0}, true},
		{arith.OpHypot, []float64{1.0, 1.0}, false},
		{arith.OpFloor, []float64{2.5}, false},
		{arith.OpCeil, []float64{3.0}, true},
		{arith.OpRound, []float64{2.5}, false},
		{arith.OpTrunc, []float64{-2.0}, true},
	}
	for _, c := range cases {
		var x [3]float64
		copy(x[:], c.args)
		flags := arith.Float64Op(c.op, x[0], x[1], x[2]).Flags
		if c.exact && flags != 0 {
			t.Errorf("%v%v: flags %v, want exact", c.op, c.args, flags)
		}
		if !c.exact && flags&fpu.FlagInexact == 0 {
			t.Errorf("%v%v: flags %v, want PE", c.op, c.args, flags)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("an unknown op should panic")
		}
	}()
	arith.Float64Op(arith.Op(200), 0, 0, 0)
}

// TestSpyHaltsOnMachineError: errors from operand access propagate.
func TestOperandErrorPropagation(t *testing.T) {
	// A divsd whose memory operand is out of bounds faults inside the
	// handler path.
	prog := asm.MustAssemble(`
		mov r1, $-8
		movsd f0, =1.0
		divsd f0, [r1]
		halt
	`)
	m, _ := machine.New(prog, nil)
	Attach(m, Config{System: arith.Vanilla{}})
	if err := m.Run(0); err == nil {
		t.Fatal("expected out-of-bounds fault")
	}
}
