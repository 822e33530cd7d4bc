package machine

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"fpvm/internal/asm"
	"fpvm/internal/fpu"
	"fpvm/internal/isa"
	"fpvm/internal/trap"
)

func run(t *testing.T, src string) (*Machine, string) {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	var out bytes.Buffer
	m, err := New(prog, &out)
	if err != nil {
		t.Fatalf("new machine: %v", err)
	}
	if err := m.Run(10_000_000); err != nil {
		t.Fatalf("run: %v\noutput so far:\n%s", err, out.String())
	}
	return m, out.String()
}

func TestIntegerBasics(t *testing.T) {
	_, out := run(t, `
		mov r0, $6
		mov r1, $7
		imul r0, r1
		outi r0
		sub r0, $2
		outi r0
		halt
	`)
	if out != "42\n40\n" {
		t.Fatalf("output %q", out)
	}
}

func TestLoopAndMemory(t *testing.T) {
	_, out := run(t, `
	.data
	arr: .i64 5, 10, 15, 20
	.text
		mov r0, $0     ; index
		mov r1, $0     ; sum
	loop:
		mov r2, [arr+r0*8]
		add r1, r2
		inc r0
		cmp r0, $4
		jl loop
		outi r1
		halt
	`)
	if out != "50\n" {
		t.Fatalf("sum output %q", out)
	}
}

func TestFPBasics(t *testing.T) {
	_, out := run(t, `
	.data
	a: .f64 1.5
	b: .f64 2.25
	.text
		movsd f0, [a]
		movsd f1, [b]
		addsd f0, f1
		outf f0
		mulsd f0, f0
		outf f0
		halt
	`)
	if out != "3.75\n14.0625\n" {
		t.Fatalf("fp output %q", out)
	}
}

func TestFPConstPool(t *testing.T) {
	_, out := run(t, `
		movsd f0, =0.5
		movsd f1, =0.25
		subsd f0, f1
		outf f0
		halt
	`)
	if out != "0.25\n" {
		t.Fatalf("output %q", out)
	}
}

func TestCallRet(t *testing.T) {
	_, out := run(t, `
	.entry main
	double:             ; r0 = 2*r0
		shl r0, $1
		ret
	main:
		mov r0, $21
		call double
		outi r0
		halt
	`)
	if out != "42\n" {
		t.Fatalf("output %q", out)
	}
}

func TestPushPop(t *testing.T) {
	m, out := run(t, `
		mov r0, $7
		push r0
		mov r0, $0
		pop r1
		outi r1
		halt
	`)
	if out != "7\n" {
		t.Fatalf("output %q", out)
	}
	if m.R[isa.RegSP] != int64(len(m.Mem)) {
		t.Fatal("stack not balanced")
	}
}

func TestFPCompareBranches(t *testing.T) {
	_, out := run(t, `
		movsd f0, =1.0
		movsd f1, =2.0
		ucomisd f0, f1
		jb less
		outi $0
		halt
	less:
		outi $1
		halt
	`)
	if out != "1\n" {
		t.Fatalf("output %q", out)
	}
}

func TestTranscendentalOps(t *testing.T) {
	_, out := run(t, `
		movsd f0, =0.0
		fsin f1, f0
		outf f1
		fcos f2, f0
		outf f2
		movsd f3, =4.0
		sqrtsd f4, f3
		outf f4
		halt
	`)
	if out != "0\n1\n2\n" {
		t.Fatalf("output %q", out)
	}
}

func TestPackedOps(t *testing.T) {
	m, _ := run(t, `
	.data
	v: .f64 1.0, 2.0
	w: .f64 10.0, 20.0
	.text
		movapd f0, [v]
		movapd f1, [w]
		addpd f0, f1
		halt
	`)
	if got := math.Float64frombits(m.F[0][0]); got != 11 {
		t.Errorf("lane0 = %v", got)
	}
	if got := math.Float64frombits(m.F[0][1]); got != 22 {
		t.Errorf("lane1 = %v", got)
	}
}

func TestXorpdSignFlip(t *testing.T) {
	// The compiler idiom: flip the sign bit with xorpd — must NOT trap.
	m, out := run(t, `
	.data
	signmask: .f64 -0.0, -0.0
	.text
		movsd f0, =3.5
		xorpd f0, [signmask]
		outf f0
		halt
	`)
	if out != "-3.5\n" {
		t.Fatalf("output %q", out)
	}
	if m.Stats.FPTraps != 0 {
		t.Fatal("xorpd should never trap")
	}
}

func TestMXCSRTrapDelivery(t *testing.T) {
	prog := asm.MustAssemble(`
		movsd f0, =1.0
		movsd f1, =3.0
		divsd f0, f1     ; inexact → PE
		halt
	`)
	var out bytes.Buffer
	m, err := New(prog, &out)
	if err != nil {
		t.Fatal(err)
	}
	m.MXCSR.SetMasks(0) // unmask everything
	var got *TrapFrame
	m.FPTrap = func(f *TrapFrame) error {
		fr := *f // the frame is machine-owned: keep a copy, not the pointer
		got = &fr
		// Emulate by writing a sentinel and skipping the instruction.
		f.M.F[0][0] = math.Float64bits(999)
		f.M.RIP = f.Inst.Addr + uint64(f.Inst.Len)
		return nil
	}
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("no trap delivered")
	}
	if got.Flags&fpu.FlagInexact == 0 {
		t.Errorf("trap flags = %v, want PE", got.Flags)
	}
	if got.Inst.Op != isa.OpDivsd {
		t.Errorf("trap inst = %v", got.Inst.Op)
	}
	if math.Float64frombits(m.F[0][0]) != 999 {
		t.Error("handler write did not take effect")
	}
	if m.Stats.FPTraps != 1 {
		t.Errorf("FPTraps = %d", m.Stats.FPTraps)
	}
	// Delivery cost must have been charged.
	if m.Stats.Trap.TotalCycles() == 0 {
		t.Error("no trap delivery cycles charged")
	}
}

func TestPreciseFaultSemantics(t *testing.T) {
	// With PE unmasked, the faulting instruction must NOT have retired:
	// the destination register keeps its old value when the handler
	// inspects it.
	prog := asm.MustAssemble(`
		movsd f0, =1.0
		movsd f1, =3.0
		divsd f0, f1
		halt
	`)
	m, err := New(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.MXCSR.SetMasks(0)
	m.FPTrap = func(f *TrapFrame) error {
		if got := math.Float64frombits(f.M.F[0][0]); got != 1.0 {
			t.Errorf("dst modified before trap: %v", got)
		}
		f.M.RIP = f.Inst.Addr + uint64(f.Inst.Len)
		return nil
	}
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestUnhandledTrapFaults(t *testing.T) {
	prog := asm.MustAssemble(`
		movsd f0, =1.0
		movsd f1, =3.0
		divsd f0, f1
		halt
	`)
	m, _ := New(prog, nil)
	m.MXCSR.SetMasks(0)
	err := m.Run(0)
	if err == nil || !strings.Contains(err.Error(), "unhandled FP exception") {
		t.Fatalf("expected unhandled-exception fault, got %v", err)
	}
}

func TestMaskedExceptionsSticky(t *testing.T) {
	m, _ := run(t, `
		movsd f0, =1.0
		movsd f1, =3.0
		divsd f0, f1
		halt
	`)
	if m.MXCSR.Flags()&fpu.FlagInexact == 0 {
		t.Error("PE should be sticky in MXCSR after masked inexact op")
	}
	if m.Stats.FPTraps != 0 {
		t.Error("masked exceptions should not trap")
	}
}

func TestSNaNArithTrapsButMoveDoesNot(t *testing.T) {
	// A signaling NaN moves freely but faults arithmetic — the property
	// FPVM's NaN-boxing depends on.
	prog := asm.MustAssemble(`
	.data
	box: .i64 0x7FF0000000000123   ; a signaling NaN pattern
	one: .f64 1.0
	.text
		movsd f0, [box]    ; no trap
		movsd f1, [one]
		addsd f1, f0       ; trap (IE)
		halt
	`)
	m, _ := New(prog, nil)
	m.MXCSR.SetMasks(0)
	traps := 0
	m.FPTrap = func(f *TrapFrame) error {
		traps++
		if f.Flags&fpu.FlagInvalid == 0 {
			t.Errorf("flags = %v, want IE", f.Flags)
		}
		if f.Inst.Op != isa.OpAddsd {
			t.Errorf("trapping op = %v, want addsd", f.Inst.Op)
		}
		f.M.RIP = f.Inst.Addr + uint64(f.Inst.Len)
		return nil
	}
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if traps != 1 {
		t.Fatalf("traps = %d, want 1 (movsd must not trap)", traps)
	}
}

func TestCorrectnessSites(t *testing.T) {
	prog := asm.MustAssemble(`
	.data
	x: .f64 2.0
	.text
		mov r0, [x]     ; integer load of FP memory — a VSA sink
		outi r0
		halt
	`)
	m, _ := New(prog, &bytes.Buffer{})
	loadSites(t, m, map[uint64]int64{0: 7}) // the mov at the entry
	var seen []int64
	m.CorrectnessTrap = func(f *TrapFrame) error {
		seen = append(seen, f.Site)
		// Handler demotes (no-op here) and does NOT advance RIP: the
		// machine re-executes the original instruction.
		return nil
	}
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] != 7 {
		t.Fatalf("correctness trap sites = %v", seen)
	}
	if m.Stats.CorrectTraps != 1 {
		t.Errorf("CorrectTraps = %d", m.Stats.CorrectTraps)
	}
}

// loadSites reloads m over an image of its program that carries the
// correctness-site table sites, as an analyzed image does, and installs it:
// the image is the only way a site reaches a machine.
func loadSites(t *testing.T, m *Machine, sites map[uint64]int64) {
	t.Helper()
	img, err := m.Image().WithSites(sites)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Load(img); err != nil {
		t.Fatal(err)
	}
	m.InstallSites()
}

func TestTrapAndPatchMode(t *testing.T) {
	prog := asm.MustAssemble(`
		movsd f0, =1.0
		movsd f1, =3.0
		divsd f0, f1
		halt
	`)
	m, _ := New(prog, nil)
	m.MXCSR.SetMasks(0) // even unmasked, the patch intercepts first
	// Locate divsd.
	var divAddr uint64
	insts, _ := prog.Disassemble()
	for _, in := range insts {
		if in.Op == isa.OpDivsd {
			divAddr = in.Addr
		}
	}
	invoked := 0
	m.SetPatch(divAddr, func(f *TrapFrame) (bool, error) {
		invoked++
		// Emulate: write 1/3 and skip.
		f.M.F[0][0] = math.Float64bits(1.0 / 3.0)
		f.M.RIP = f.Inst.Addr + uint64(f.Inst.Len)
		return true, nil
	})
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if invoked != 1 {
		t.Fatalf("patch handler invoked %d times", invoked)
	}
	if m.Stats.FPTraps != 0 {
		t.Error("patched site should not reach the FP trap path")
	}
	if m.Stats.PatchInvokes != 1 {
		t.Error("PatchInvokes not counted")
	}
}

func TestCyclesMonotonicAndCharged(t *testing.T) {
	m, _ := run(t, `
		mov r0, $0
		mov r1, $0
	loop:
		add r1, r0
		inc r0
		cmp r0, $1000
		jl loop
		halt
	`)
	if m.Cycles == 0 {
		t.Fatal("no cycles charged")
	}
	if m.Stats.Instructions < 3000 {
		t.Fatalf("instructions = %d", m.Stats.Instructions)
	}
}

func TestDeliveryModelCosts(t *testing.T) {
	mk := func(k trap.Kind) uint64 {
		prog := asm.MustAssemble(`
			movsd f0, =1.0
			movsd f1, =3.0
			divsd f0, f1
			halt
		`)
		m, _ := New(prog, nil)
		m.MXCSR.SetMasks(0)
		m.Delivery = k
		m.FPTrap = func(f *TrapFrame) error {
			f.M.RIP = f.Inst.Addr + uint64(f.Inst.Len)
			return nil
		}
		if err := m.Run(0); err != nil {
			t.Fatal(err)
		}
		return m.Stats.Trap.TotalCycles()
	}
	user := mk(trap.DeliverUserSignal)
	kern := mk(trap.DeliverKernel)
	u2u := mk(trap.DeliverUserToUser)
	if !(user > kern && kern > u2u) {
		t.Fatalf("delivery costs not ordered: user=%d kernel=%d u2u=%d", user, kern, u2u)
	}
	if user < 7*u2u {
		t.Errorf("user/u2u ratio too small: %d vs %d", user, u2u)
	}
}

func TestOutFilterHijack(t *testing.T) {
	prog := asm.MustAssemble(`
		movsd f0, =2.5
		outf f0
		halt
	`)
	var out bytes.Buffer
	m, _ := New(prog, &out)
	m.OutFilter = func(bits uint64) (string, bool) {
		return "hijacked", true
	}
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if out.String() != "hijacked\n" {
		t.Fatalf("output %q", out.String())
	}
}

func TestMemoryFaults(t *testing.T) {
	prog := asm.MustAssemble(`
		mov r0, $-8
		mov r1, [r0]
		halt
	`)
	m, _ := New(prog, nil)
	if err := m.Run(0); err == nil {
		t.Fatal("expected out-of-bounds fault")
	}
}

func TestIntegerDivideByZeroFaults(t *testing.T) {
	prog := asm.MustAssemble(`
		mov r0, $5
		mov r1, $0
		idiv r0, r1
		halt
	`)
	m, _ := New(prog, nil)
	if err := m.Run(0); err == nil {
		t.Fatal("expected divide-by-zero fault")
	}
}

func TestLeaAndIndexing(t *testing.T) {
	_, out := run(t, `
	.data
	tbl: .i64 100, 200, 300
	.text
		mov r0, $2
		lea r1, [tbl+r0*8]
		mov r2, [r1]
		outi r2
		halt
	`)
	if out != "300\n" {
		t.Fatalf("output %q", out)
	}
}

func TestCvtRoundTrip(t *testing.T) {
	_, out := run(t, `
		mov r0, $7
		cvtsi2sd f0, r0
		outf f0
		cvttsd2si r1, f0
		outi r1
		halt
	`)
	if out != "7\n7\n" {
		t.Fatalf("output %q", out)
	}
}

func TestFmaddsd(t *testing.T) {
	m, _ := run(t, `
		movsd f0, =10.0   ; accumulator
		movsd f1, =3.0
		movsd f2, =4.0
		fmaddsd f0, f1, f2
		halt
	`)
	if got := math.Float64frombits(m.F[0][0]); got != 22 {
		t.Fatalf("fmadd result %v", got)
	}
}
