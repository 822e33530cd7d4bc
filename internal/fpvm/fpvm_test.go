package fpvm

import (
	"bytes"
	"math"
	"testing"

	"fpvm/internal/arith"
	"fpvm/internal/asm"
	"fpvm/internal/machine"
	"fpvm/internal/nanbox"
	"fpvm/internal/posit"
)

// lorenzSrc integrates the Lorenz system with Euler steps and prints the
// final coordinates — plenty of rounding traps.
const lorenzSrc = `
.data
x: .f64 1.0
y: .f64 1.0
z: .f64 1.0
.text
	mov r0, $0
step:
	movsd f0, [x]
	movsd f1, [y]
	movsd f2, [z]
	; dx = sigma*(y-x)
	movsd f3, f1
	subsd f3, f0
	mulsd f3, =10.0
	; dy = x*(rho - z) - y
	movsd f4, =28.0
	subsd f4, f2
	mulsd f4, f0
	subsd f4, f1
	; dz = x*y - beta*z
	movsd f5, f0
	mulsd f5, f1
	movsd f6, f2
	mulsd f6, =2.6666666666666665
	subsd f5, f6
	; x += dt*dx etc., dt = 0.005
	mulsd f3, =0.005
	addsd f0, f3
	mulsd f4, =0.005
	addsd f1, f4
	mulsd f5, =0.005
	addsd f2, f5
	movsd [x], f0
	movsd [y], f1
	movsd [z], f2
	inc r0
	cmp r0, $200
	jl step
	outf f0
	outf f1
	outf f2
	halt
`

func runNative(t *testing.T, src string) (string, *machine.Machine) {
	t.Helper()
	prog := asm.MustAssemble(src)
	var out bytes.Buffer
	m, err := machine.New(prog, &out)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(0); err != nil {
		t.Fatalf("native run: %v", err)
	}
	return out.String(), m
}

// loadSites reloads m over an image of its program that carries the
// correctness-site table sites, as an analyzed image does, and installs it:
// the image is the only way a site reaches a machine. Call it before Attach.
// Like findOpAddr it panics instead of taking a testing.T, for prep closures.
func loadSites(m *machine.Machine, sites map[uint64]int64) {
	img, err := m.Image().WithSites(sites)
	if err == nil {
		err = m.Load(img)
	}
	if err != nil {
		panic(err)
	}
	m.InstallSites()
}

func runFPVM(t *testing.T, src string, sys arith.System, cfg Config) (string, *machine.Machine, *VM) {
	t.Helper()
	prog := asm.MustAssemble(src)
	var out bytes.Buffer
	m, err := machine.New(prog, &out)
	if err != nil {
		t.Fatal(err)
	}
	cfg.System = sys
	vm := Attach(m, cfg)
	if err := m.Run(0); err != nil {
		t.Fatalf("FPVM run: %v", err)
	}
	return out.String(), m, vm
}

// TestValidationVanilla is the §5.2 experiment: running under FPVM with the
// Vanilla system must produce output identical to native execution.
func TestValidationVanilla(t *testing.T) {
	native, _ := runNative(t, lorenzSrc)
	virt, _, vm := runFPVM(t, lorenzSrc, arith.Vanilla{}, Config{})
	if native != virt {
		t.Fatalf("vanilla output differs:\nnative: %sfpvm:  %s", native, virt)
	}
	if vm.Stats.Traps == 0 {
		t.Fatal("expected FP traps under FPVM")
	}
	if vm.Stats.Emulated == 0 {
		t.Fatal("expected emulations")
	}
}

// TestMPFRDiverges is the §5.4 effect: higher precision changes the
// trajectory of a chaotic system.
func TestMPFRDiverges(t *testing.T) {
	native, _ := runNative(t, lorenzSrc)
	virt, _, vm := runFPVM(t, lorenzSrc, arith.NewMPFR(200), Config{})
	if native == virt {
		t.Fatal("MPFR(200) output should differ from IEEE on a chaotic system")
	}
	if vm.Stats.OutputHooks == 0 {
		t.Fatal("output hijack should have formatted shadow values")
	}
	// The values should still be recognizably Lorenz coordinates (|v|<60).
	if len(virt) == 0 {
		t.Fatal("no output")
	}
}

// TestPositRuns checks the posit system plugs in and produces output.
func TestPositRuns(t *testing.T) {
	virt, _, vm := runFPVM(t, lorenzSrc, arith.NewPosit(posit.Posit32), Config{})
	if virt == "" {
		t.Fatal("no output under posit")
	}
	if vm.Stats.Traps == 0 {
		t.Fatal("no traps under posit")
	}
}

func TestDecodeCache(t *testing.T) {
	_, _, vm := runFPVM(t, lorenzSrc, arith.Vanilla{}, Config{})
	if vm.Stats.DecodeMisses == 0 || vm.Stats.DecodeHits == 0 {
		t.Fatalf("decode stats: hits=%d misses=%d", vm.Stats.DecodeHits, vm.Stats.DecodeMisses)
	}
	// The loop executes each site 200 times: hit rate must be near 1.
	rate := float64(vm.Stats.DecodeHits) / float64(vm.Stats.DecodeHits+vm.Stats.DecodeMisses)
	if rate < 0.95 {
		t.Fatalf("decode cache hit rate %.3f too low", rate)
	}
}

func TestGCCollectsGarbage(t *testing.T) {
	_, _, vm := runFPVM(t, lorenzSrc, arith.Vanilla{}, Config{GCEveryNAllocs: 500})
	if vm.Stats.GC.Passes == 0 {
		t.Fatal("no GC passes")
	}
	if vm.Stats.GC.TotalFreed == 0 {
		t.Fatal("GC freed nothing")
	}
	// Live values at any time: x, y, z in memory + a few registers; the
	// arena must not have grown unboundedly.
	if vm.Arena.Live() > 2000 {
		t.Fatalf("arena live count %d too high after GC", vm.Arena.Live())
	}
	// >95% of shadow values are collected (paper's Figure 10), once the
	// tail of allocations since the last epoch is accounted for.
	vm.RunGC()
	freedFrac := float64(vm.Stats.GC.TotalFreed) / float64(vm.Arena.Allocs())
	if freedFrac < 0.95 {
		t.Fatalf("GC freed fraction %.3f too low", freedFrac)
	}
}

func TestGCPreservesLiveValues(t *testing.T) {
	// Store shadow values to memory, force a GC, then consume them: the
	// results must be unaffected by collection.
	src := `
.data
a: .f64 1.0
out: .zero 8
.text
	movsd f0, [a]
	divsd f0, =3.0    ; traps, result boxed
	movsd [out], f0   ; box now lives in memory only
	movsd f0, =0.0    ; clobber the register
	movsd f1, [out]
	mulsd f1, =3.0    ; consume the boxed value
	outf f1
	halt
`
	prog := asm.MustAssemble(src)
	var out bytes.Buffer
	m, _ := machine.New(prog, &out)
	vm := Attach(m, Config{System: arith.Vanilla{}})
	// Step until the box is stored, then GC, then finish.
	for i := 0; i < 4 && !m.Halted(); i++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	vm.RunGC()
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if out.String() != "1\n" {
		t.Fatalf("output %q, want 1 (0.9999... would mean the shadow was lost)", out.String())
	}
}

func TestNaNBoxingInvariants(t *testing.T) {
	for _, key := range []uint64{0, 1, 12345, nanbox.MaxKey} {
		bits := nanbox.Box(key)
		if !nanbox.IsBoxed(bits) {
			t.Fatalf("Box(%d) not boxed", key)
		}
		got, ok := nanbox.Unbox(bits)
		if !ok || got != key {
			t.Fatalf("Unbox(Box(%d)) = %d, %v", key, got, ok)
		}
		// A box must be a signaling NaN to the hardware.
		f := math.Float64frombits(bits)
		if !math.IsNaN(f) {
			t.Fatal("box is not a NaN")
		}
		if bits&(1<<51) != 0 {
			t.Fatal("box has quiet bit set")
		}
	}
	// Ordinary values are not boxes.
	for _, v := range []float64{0, 1, -1, math.Inf(1), math.NaN(), 1e300} {
		if nanbox.IsBoxed(math.Float64bits(v)) {
			t.Errorf("%v misidentified as box", v)
		}
	}
}

// TestCorrectnessDemotion exercises the virtualization hole: an integer
// load of memory holding a NaN-box, fixed by a correctness site.
func TestCorrectnessDemotion(t *testing.T) {
	src := `
.data
a: .f64 1.0
slot: .zero 8
.text
	movsd f0, [a]
	divsd f0, =3.0     ; boxed result
	movsd [slot], f0   ; box escapes to memory
	mov r0, [slot]     ; integer load — the sink
	outi r0
	halt
`
	prog := asm.MustAssemble(src)

	// Find the integer mov's address.
	insts, _ := prog.Disassemble()
	var sink uint64
	for _, in := range insts {
		if in.Op.String() == "mov" && in.Ops[1].Kind.String() == "mem" {
			sink = in.Addr
		}
	}

	// Without the correctness site, the integer observes the raw box.
	var out1 bytes.Buffer
	m1, _ := machine.New(prog, &out1)
	Attach(m1, Config{System: arith.Vanilla{}})
	if err := m1.Run(0); err != nil {
		t.Fatal(err)
	}
	rawBox := out1.String()

	// With the site installed, the handler demotes before the load: the
	// integer sees the IEEE bits of 1/3.
	var out2 bytes.Buffer
	m2, _ := machine.New(prog, &out2)
	loadSites(m2, map[uint64]int64{sink: 1})
	vm2 := Attach(m2, Config{System: arith.Vanilla{}})
	if err := m2.Run(0); err != nil {
		t.Fatal(err)
	}
	want := int64(math.Float64bits(1.0 / 3.0))
	if out2.String() != formatInt(want) {
		t.Fatalf("demoted load printed %q, want %d", out2.String(), want)
	}
	if out1.String() == out2.String() {
		t.Fatal("unpatched and patched runs should differ")
	}
	if vm2.Stats.Demotions == 0 || vm2.Stats.CorrectTraps == 0 {
		t.Fatal("no demotions recorded")
	}
	_ = rawBox
}

func formatInt(v int64) string {
	var buf bytes.Buffer
	buf.WriteString("")
	return itoa(v) + "\n"
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	var digits []byte
	u := uint64(v)
	if neg {
		u = uint64(-v)
	}
	for u > 0 {
		digits = append([]byte{byte('0' + u%10)}, digits...)
		u /= 10
	}
	if neg {
		return "-" + string(digits)
	}
	return string(digits)
}

// TestExternalCallDemotion checks FP registers are demoted at callext.
func TestExternalCallDemotion(t *testing.T) {
	src := `
.data
a: .f64 1.0
.text
	movsd f0, [a]
	divsd f0, =3.0     ; boxed
	callext $7
	halt
`
	_, m, vm := runFPVM(t, src, arith.Vanilla{}, Config{})
	if vm.Stats.ExtDemotions == 0 {
		t.Fatal("no demotions at external call")
	}
	if got := math.Float64frombits(m.F[0][0]); got != 1.0/3.0 {
		t.Fatalf("f0 after external call = %v, want 1/3", got)
	}
}

// TestComparesEmulated verifies boxed operands flow through ucomisd.
func TestComparesEmulated(t *testing.T) {
	src := `
.data
a: .f64 1.0
.text
	movsd f0, [a]
	divsd f0, =3.0      ; boxed 1/3
	movsd f1, =0.5
	ucomisd f0, f1      ; boxed vs plain: must trap and compare correctly
	jb less
	outi $0
	halt
less:
	outi $1
	halt
`
	out, _, _ := runFPVM(t, src, arith.Vanilla{}, Config{})
	if out != "1\n" {
		t.Fatalf("compare output %q, want 1 (1/3 < 0.5)", out)
	}
}

// TestCvtWithBoxes verifies double→int conversion of a boxed value.
func TestCvtWithBoxes(t *testing.T) {
	src := `
.data
a: .f64 10.0
.text
	movsd f0, [a]
	divsd f0, =3.0      ; boxed 10/3
	cvttsd2si r0, f0
	outi r0
	halt
`
	out, _, _ := runFPVM(t, src, arith.Vanilla{}, Config{})
	if out != "3\n" {
		t.Fatalf("cvt output %q, want 3", out)
	}
}

// TestDemoteAll checks final-state demotion restores pure IEEE memory.
func TestDemoteAll(t *testing.T) {
	src := `
.data
a: .f64 1.0
slot: .zero 8
.text
	movsd f0, [a]
	divsd f0, =3.0
	movsd [slot], f0
	halt
`
	_, m, vm := runFPVM(t, src, arith.Vanilla{}, Config{})
	vm.DemoteAll()
	prog := m.Prog
	slotAddr := prog.Symbols["slot"]
	bits, _ := m.ReadU64(slotAddr)
	if nanbox.IsBoxed(bits) {
		t.Fatal("slot still boxed after DemoteAll")
	}
	if got := math.Float64frombits(bits); got != 1.0/3.0 {
		t.Fatalf("slot = %v, want 1/3", got)
	}
}

// TestCycleAccounting verifies the Figure 9 component counters accumulate.
func TestCycleAccounting(t *testing.T) {
	_, m, vm := runFPVM(t, lorenzSrc, arith.NewMPFR(200), Config{GCEveryNAllocs: 1000})
	c := vm.Stats.Cycles
	if c.Decode == 0 || c.Bind == 0 || c.Emulate == 0 || c.GC == 0 {
		t.Fatalf("missing component cycles: %+v", c)
	}
	if m.Stats.Trap.TotalCycles() == 0 {
		t.Fatal("no delivery cycles")
	}
	// Per-trap cost should land in the paper's 12k–24k band for MPFR 200.
	perTrap := (m.Stats.Trap.TotalCycles() + c.Decode + c.Bind + c.Emulate + c.GC) / vm.Stats.Traps
	if perTrap < 6_000 || perTrap > 40_000 {
		t.Fatalf("per-trap cost %d cycles outside plausible band", perTrap)
	}
}

func TestUniversalNaN(t *testing.T) {
	// 0/0 in the alternative system produces a NaN shadow; consuming it
	// propagates NaN, and printing it shows nan.
	src := `
.data
z: .f64 0.0
.text
	movsd f0, [z]
	divsd f0, [z]      ; 0/0 → IE trap → shadow NaN
	addsd f0, =1.0
	outf f0
	halt
`
	out, _, _ := runFPVM(t, src, arith.Vanilla{}, Config{})
	if out != "nan\n" && out != "NaN\n" {
		t.Fatalf("output %q, want nan", out)
	}
}

func TestArenaReuse(t *testing.T) {
	a := NewArena()
	k1 := a.Alloc()
	k2 := a.Alloc()
	if k1 == k2 {
		t.Fatal("duplicate keys")
	}
	a.Mark(k2)
	freed, alive := a.Sweep()
	if freed != 1 || alive != 1 {
		t.Fatalf("sweep: freed=%d alive=%d", freed, alive)
	}
	if a.InUse(k1) {
		t.Fatal("k1 should be freed")
	}
	if !a.InUse(k2) {
		t.Fatal("k2 should survive")
	}
	k3 := a.Alloc()
	if k3 != k1 {
		t.Fatalf("freed slot not reused: got %d want %d", k3, k1)
	}
}
