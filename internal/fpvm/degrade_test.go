package fpvm

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"fpvm/internal/arith"
	"fpvm/internal/asm"
	"fpvm/internal/faultinject"
	"fpvm/internal/fpu"
	"fpvm/internal/machine"
	"fpvm/internal/nanbox"
	"fpvm/internal/telemetry"
)

// TestDemoteBitsUniversalNaN is the regression test for the demotion of a
// universal NaN: a signaling-NaN pattern whose key resolves to no shadow cell
// must demote to the x64 indefinite QNaN (0x7FF8000000000000), the pattern
// masked hardware produces — not Go's math.NaN() bits, whose payload has an
// extra low bit set and would diverge from a native run bit for bit.
func TestDemoteBitsUniversalNaN(t *testing.T) {
	_, _, vm := runFPVM(t, lorenzSrc, arith.Vanilla{}, Config{})

	// A boxed key far beyond anything the arena allocated: no shadow cell.
	wild := nanbox.Box(uint64(vm.Arena.HighWater()) + 100_000)
	got, demoted := vm.demoteBits(wild)
	if !demoted {
		t.Fatal("universal NaN pattern was not recognized as demotable")
	}
	if got != fpu.QNaN() {
		t.Fatalf("universal NaN demoted to %#x, want the x64 indefinite QNaN %#x", got, fpu.QNaN())
	}
	if got == math.Float64bits(math.NaN()) {
		t.Fatalf("universal NaN demoted to Go's math.NaN() bits %#x — the old bug", got)
	}
}

// TestNonFPInstructionDegrades feeds the FP trap handler an instruction the
// decoder cannot translate. The seed panicked here; now the failure must be
// a recoverable degradation: the instruction re-executes natively, the run
// continues, and the degradation is classified as a decode failure.
func TestNonFPInstructionDegrades(t *testing.T) {
	prog := asm.MustAssemble(`
.text
	mov r1, $7
	add r1, $5
	halt
`)
	var out bytes.Buffer
	m, err := machine.New(prog, &out)
	if err != nil {
		t.Fatal(err)
	}
	vm := Attach(m, Config{System: arith.Vanilla{}})

	// Deliver the integer add to the FP handler, as a mispatched or
	// misdelivered site would.
	in := &m.Insts()[1]
	idx := 1
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("FP trap handler panicked on a non-FP instruction: %v", r)
		}
	}()
	m.R[1] = 7
	m.RIP = in.Addr
	if err := m.FPTrap(&machine.TrapFrame{M: m, Inst: in, Idx: idx}); err != nil {
		t.Fatalf("degradation path returned an error: %v", err)
	}
	if vm.Stats.Degradations != 1 {
		t.Fatalf("Degradations = %d, want 1", vm.Stats.Degradations)
	}
	if vm.Stats.DegradeByCause[telemetry.DegradeDecode] != 1 {
		t.Fatalf("DegradeByCause = %v, want one decode degradation", vm.Stats.DegradeByCause)
	}
	if m.R[1] != 12 {
		t.Fatalf("degraded add r1, $5 left r1 = %d, want 12 (native semantics)", m.R[1])
	}
}

// TestInjectedFaultsBitIdentical is the degradation engine's core promise:
// with error-seam injection (no payload corruption) under the Vanilla
// system, every absorbed fault re-executes natively, so the output must stay
// bit-identical to a native run.
func TestInjectedFaultsBitIdentical(t *testing.T) {
	native, nm := runNative(t, lorenzSrc)

	inj := faultinject.New(faultinject.Config{Seed: 7}.UniformRate(0.01))
	virt, m, vm := runFPVM(t, lorenzSrc, arith.Vanilla{}, Config{Inject: inj})
	if vm.Stats.Degradations == 0 {
		t.Fatalf("1%% uniform fault rate produced no degradations (fired=%d)", inj.TotalFired())
	}
	if native != virt {
		t.Fatalf("degraded Vanilla output differs from native:\nnative: %sfpvm:   %s", native, virt)
	}
	vm.DetachInjector()
	vm.RunGC()
	vm.DemoteAll()
	if !bytes.Equal(nm.Mem, m.Mem) {
		t.Fatal("degraded Vanilla memory differs from native after demotion")
	}
}

// TestInjectedFaultsAllSeams runs a high-rate campaign and checks every
// error seam both fired and was absorbed without killing the run.
func TestInjectedFaultsAllSeams(t *testing.T) {
	cfg := faultinject.Config{Seed: 3}.UniformRate(0.05)
	// The GC-scan seam has few crossings (one per epoch), so its rate is
	// raised to make at least one aborted pass all but certain.
	cfg.Rate[faultinject.SeamGCScan] = 0.9
	inj := faultinject.New(cfg)
	_, _, vm := runFPVM(t, lorenzSrc, arith.Vanilla{}, Config{Inject: inj, GCEveryNAllocs: 200})
	for _, s := range []faultinject.Seam{
		faultinject.SeamDecode, faultinject.SeamBind,
		faultinject.SeamEmulate, faultinject.SeamArenaAlloc,
	} {
		if inj.Fired[s] == 0 {
			t.Errorf("seam %s never fired (crossings=%d)", s, inj.Crossings[s])
		}
	}
	if vm.Stats.Degradations == 0 {
		t.Fatal("no degradations under a 5% fault rate")
	}
	if vm.Stats.GC.AbortedPasses == 0 {
		t.Errorf("gc-scan seam never aborted a pass (crossings=%d)", inj.Crossings[faultinject.SeamGCScan])
	}
}

// TestCorruptedBoxesSurvive scrambles NaN-box payloads and requires the run
// to terminate cleanly through the universal-NaN path.
func TestCorruptedBoxesSurvive(t *testing.T) {
	inj := faultinject.New(faultinject.Config{Seed: 11, CorruptRate: 0.01})
	_, _, vm := runFPVM(t, lorenzSrc, arith.Vanilla{}, Config{Inject: inj})
	if inj.Corrupted == 0 {
		t.Fatal("corruption campaign scrambled no boxes")
	}
	if vm.Stats.UniversalNaN == 0 {
		t.Fatal("corrupted boxes never took the universal-NaN path")
	}
}

// TestArenaSoftCapTriggersGC pins the soft-cap behavior: with the epoch
// trigger effectively disabled, live-cell pressure alone must start GC
// passes, and the run must complete without degradations.
func TestArenaSoftCapTriggersGC(t *testing.T) {
	_, _, vm := runFPVM(t, lorenzSrc, arith.Vanilla{}, Config{
		GCEveryNAllocs: 1 << 62, // epoch trigger off
		ArenaSoftCap:   64,
	})
	if vm.Stats.GC.Passes == 0 {
		t.Fatal("soft cap never triggered a GC pass")
	}
	if vm.Stats.Degradations != 0 {
		t.Fatalf("soft-cap pressure degraded %d instructions; GC alone should absorb it", vm.Stats.Degradations)
	}
	if vm.Stats.GC.ArenaHighWater > 64+64/4+2 {
		t.Fatalf("arena high water %d far exceeds the soft cap 64", vm.Stats.GC.ArenaHighWater)
	}
}

// packedSrc keeps both lanes of f1 boxed across a loop of packed multiplies
// and adds, so every instruction allocates two cells.
const packedSrc = `
.data
uv: .f64 1.0, 3.0
k:  .f64 1.01, 0.99
.text
	mov r0, $0
	movapd f1, [uv]
	movapd f2, [k]
loop:
	mulpd f1, f2
	addpd f1, f2
	inc r0
	cmp r0, $200
	jl loop
	movapd [uv], f1
	outf f1
	halt
`

// TestSoftCapGCKeepsPendingLane is the regression test for a soft-cap GC
// pass that runs inside lane 1's allocation of a packed instruction: lane 0's
// result is boxed but not yet written back, so the pass must treat it as
// live. Freeing it let lane 1 reuse the cell, and both lanes read back lane
// 1's value.
func TestSoftCapGCKeepsPendingLane(t *testing.T) {
	native, _ := runNative(t, packedSrc)
	virt, _, vm := runFPVM(t, packedSrc, arith.Vanilla{}, Config{
		GCEveryNAllocs: math.MaxUint64,
		ArenaSoftCap:   4,
	})
	if vm.Stats.GC.Passes == 0 {
		t.Fatal("soft cap never triggered a GC pass")
	}
	if virt != native {
		t.Fatalf("soft-cap GC changed output:\nnative: %sfpvm:   %s", native, virt)
	}
}

// TestArenaHardCapDegrades pins the hard-cap behavior: with the GC epoch set
// out of reach the arena fills to its ceiling, after which every allocation
// degrades its instruction to native execution — and under Vanilla the
// output must still be bit-identical, because degradation is the same IEEE
// arithmetic.
func TestArenaHardCapDegrades(t *testing.T) {
	native, _ := runNative(t, lorenzSrc)
	virt, _, vm := runFPVM(t, lorenzSrc, arith.Vanilla{}, Config{
		GCEveryNAllocs: math.MaxUint64,
		ArenaHardCap:   128,
	})
	if vm.Stats.Degradations == 0 {
		t.Fatal("hard cap never degraded an allocation")
	}
	if vm.Stats.DegradeByCause[telemetry.DegradeArena] != vm.Stats.Degradations {
		t.Fatalf("degradations %d not all attributed to the arena: %v",
			vm.Stats.Degradations, vm.Stats.DegradeByCause)
	}
	if vm.Arena.HighWater() > 128 {
		t.Fatalf("arena grew to %d cells past the 128 hard cap", vm.Arena.HighWater())
	}
	if native != virt {
		t.Fatalf("hard-cap degradation changed output:\nnative: %sfpvm:   %s", native, virt)
	}
}

// TestDegradationTelemetry checks that degradations land in the collector's
// site table, at the degraded PC, and in the event stream.
func TestDegradationTelemetry(t *testing.T) {
	m, err := machine.New(asm.MustAssemble(lorenzSrc), &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	var site uint64
	for _, in := range m.Insts() {
		if in.Op.IsFPArith() {
			site = in.Addr
			break
		}
	}
	col := telemetry.NewCollector(0)
	m.Telem = col
	inj := faultinject.New(faultinject.Config{Sites: map[uint64]faultinject.Seam{site: faultinject.SeamEmulate}})
	vm := Attach(m, Config{System: arith.Vanilla{}, Inject: inj})
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if vm.Stats.Degradations == 0 {
		t.Fatalf("site-forced emulate fault at %#x never degraded", site)
	}
	var atSite uint64
	for _, s := range col.Sites() {
		if s.PC == site {
			atSite += s.Degradations
		}
	}
	if atSite != vm.Stats.Degradations {
		t.Fatalf("site table attributes %d degradations to %#x, VM counted %d", atSite, site, vm.Stats.Degradations)
	}
	var trace bytes.Buffer
	if err := col.WriteJSONL(&trace); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace.String(), `"degrade"`) {
		t.Fatal("JSONL trace has no degrade event")
	}
}

// TestDegradationMidSequence injects a site-forced fault at an instruction
// reachable only through sequence emulation's forward walk, and checks the
// coalesced run degrades that one instruction and continues bit-identically.
func TestDegradationMidSequence(t *testing.T) {
	native, _ := runNative(t, lorenzSrc)

	// Find an FP-arith instruction that directly follows another FP-arith
	// instruction — a coalescing candidate.
	scout, err := machine.New(asm.MustAssemble(lorenzSrc), &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	insts := scout.Insts()
	var site uint64
	for i := 1; i < len(insts); i++ {
		if insts[i].Op.IsFPArith() && insts[i-1].Op.IsFPArith() &&
			insts[i].Op.IsPacked() == insts[i-1].Op.IsPacked() {
			site = insts[i].Addr
			break
		}
	}
	if site == 0 {
		t.Skip("no coalescable pair in program")
	}
	inj := faultinject.New(faultinject.Config{
		Seed:  1,
		Sites: map[uint64]faultinject.Seam{site: faultinject.SeamEmulate},
	})
	virt, _, vm := runFPVM(t, lorenzSrc, arith.Vanilla{}, Config{
		Inject:         inj,
		MaxSequenceLen: 16,
	})
	if vm.Stats.Degradations == 0 {
		t.Fatalf("site-forced emulate fault at %#x never degraded", site)
	}
	if virt != native {
		t.Fatalf("mid-sequence degradation changed output:\nnative: %sfpvm:   %s", native, virt)
	}
}
