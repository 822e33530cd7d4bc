package fpvm

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"fpvm/internal/arith"
	"fpvm/internal/asm"
	"fpvm/internal/faultinject"
	"fpvm/internal/isa"
	"fpvm/internal/machine"
	"fpvm/internal/telemetry"
)

// jitHotSrc is the canonical superblock workload: one trapping site (the
// inexact divsd) followed by two coalescable moves, spun 50 times. The trace
// rooted at the divsd is exactly [divsd, movsd, movsd]; the moves never trap
// on their own, so every JIT counter in the run belongs to the one entry.
const jitHotSrc = `
.text
	mov r0, $0
loop:
	movsd f0, =1.0
	divsd f0, =3.0
	movsd f1, f0
	movsd f2, f1
	inc r0
	cmp r0, $50
	jl loop
	outf f0
	outf f1
	outf f2
	halt
`

// runSB assembles src, optionally customizes the machine, attaches under the
// given config (System defaults to Vanilla), and runs to halt.
func runSB(t *testing.T, src string, cfg Config, prep func(*machine.Machine)) (string, *machine.Machine, *VM) {
	t.Helper()
	prog := asm.MustAssemble(src)
	var out bytes.Buffer
	m, err := machine.New(prog, &out)
	if err != nil {
		t.Fatal(err)
	}
	if prep != nil {
		prep(m)
	}
	if cfg.System == nil {
		cfg.System = arith.Vanilla{}
	}
	vm := Attach(m, cfg)
	if err := m.Run(0); err != nil {
		t.Fatalf("run: %v", err)
	}
	return out.String(), m, vm
}

// traceBodyAddr returns the address of the instruction immediately after the
// unique divsd — the first body instruction of jitHotSrc's cached trace.
func traceBodyAddr(m *machine.Machine) uint64 {
	idx, ok := m.InstIndex(findOpAddr(m, isa.OpDivsd))
	if !ok {
		panic("divsd not on an instruction boundary")
	}
	return m.Insts()[idx+1].Addr
}

// sbAt returns the cached superblock rooted at the unique instance of op.
func sbAt(t *testing.T, m *machine.Machine, vm *VM, op isa.Op) *trace {
	t.Helper()
	idx, ok := m.InstIndex(findOpAddr(m, op))
	if !ok {
		t.Fatalf("%v is not on an instruction boundary", op)
	}
	return vm.sblocks[idx]
}

// TestTiersCutTrapsAndCycles pins what each tier buys on Lorenz, on a run
// without faults: sequence emulation cuts traps, the trace JIT on top of it
// cuts both traps and cycles further, none of them changes the output, and
// none records a degradation.
func TestTiersCutTrapsAndCycles(t *testing.T) {
	outs, traps, cycles := []string{}, []uint64{}, []uint64{}
	for _, cfg := range []Config{{}, {MaxSequenceLen: 16}, {MaxSequenceLen: 16, JITThreshold: 4}} {
		out, m, vm := runFPVM(t, lorenzSrc, arith.Vanilla{}, cfg)
		if vm.Stats.Degradations != 0 {
			t.Errorf("%+v: zero-fault run recorded %d degradations", cfg, vm.Stats.Degradations)
		}
		outs, traps, cycles = append(outs, out), append(traps, vm.Stats.Traps), append(cycles, m.Cycles)
	}
	if outs[1] != outs[0] || outs[2] != outs[0] {
		t.Fatalf("a tier changed the output:\nplain: %sseq:   %sjit:   %s", outs[0], outs[1], outs[2])
	}
	if !(traps[2] < traps[1] && traps[1] < traps[0]) {
		t.Errorf("traps plain %d, seqemu %d, jit %d: want each tier to cut them", traps[0], traps[1], traps[2])
	}
	if cycles[2] >= cycles[1] {
		t.Errorf("jit tier did not cut cycles: %d (jit) vs %d (seqemu)", cycles[2], cycles[1])
	}
}

// TestJITCompilesAndHits is the tentpole happy path: a hot Lorenz run
// compiles at least one superblock, serves the loop from it with zero
// deliveries, and still prints exactly what native execution prints.
func TestJITCompilesAndHits(t *testing.T) {
	native, _ := runNative(t, lorenzSrc)
	virt, m, _ := runSB(t, lorenzSrc, Config{MaxSequenceLen: 16, JITThreshold: 4}, nil)
	if native != virt {
		t.Fatalf("jit output differs:\nnative: %sfpvm:  %s", native, virt)
	}
	if m.Stats.SBCompiled == 0 {
		t.Fatal("no superblock compiled on a hot loop")
	}
	if m.Stats.SBHits == 0 {
		t.Fatal("superblock never served a zero-delivery entry")
	}
}

// TestJITSingleSiteTrace pins the deterministic shape of jitHotSrc: exactly
// one superblock of exactly three thunks, hit on every iteration past the
// threshold.
func TestJITSingleSiteTrace(t *testing.T) {
	native, _ := runNative(t, jitHotSrc)
	virt, m, vm := runSB(t, jitHotSrc, Config{JITThreshold: 3}, nil)
	if native != virt {
		t.Fatalf("output differs:\nnative: %sfpvm:  %s", native, virt)
	}
	if m.Stats.SBCompiled != 1 {
		t.Fatalf("SBCompiled = %d, want 1", m.Stats.SBCompiled)
	}
	// 50 iterations: 3 classic deliveries, then 47 superblock entries.
	if m.Stats.SBHits != 47 {
		t.Fatalf("SBHits = %d, want 47", m.Stats.SBHits)
	}
	sb := sbAt(t, m, vm, isa.OpDivsd)
	if sb == nil {
		t.Fatal("no superblock cached at the divsd entry")
	}
	if len(sb.steps) != 3 {
		t.Fatalf("trace length %d, want 3 (divsd + two moves)", len(sb.steps))
	}
}

// TestJITCodeWriteKeepsTrace: a guest store below the data base, into the
// shadow of the code segment, on every trip of a hot loop changes no
// instruction — execution fetches only from the immutable image — so the
// compiled trace stays installed and serves every trip past the threshold.
func TestJITCodeWriteKeepsTrace(t *testing.T) {
	src := strings.Replace(jitHotSrc, "\tinc r0\n", "\tmov [r1], r0\n\tinc r0\n", 1)
	src = strings.Replace(src, "\tmov r0, $0\n", "\tmov r0, $0\n\tmov r1, $8\n", 1)
	native, _ := runNative(t, src)
	virt, m, vm := runSB(t, src, Config{JITThreshold: 3}, nil)
	if virt != native {
		t.Fatalf("output diverged:\nnative: %sfpvm:  %s", native, virt)
	}
	if got, err := m.ReadU64(8); err != nil || got != 49 || m.WritableBase() <= 8 {
		t.Fatalf("premise broken: word at 8 = %d (%v), writable base %#x", got, err, m.WritableBase())
	}
	if m.Stats.SBCompiled != 1 || m.Stats.SBHits != 47 {
		t.Fatalf("%d compiled, %d hits; want 1 and 47", m.Stats.SBCompiled, m.Stats.SBHits)
	}
	if sb := sbAt(t, m, vm, isa.OpDivsd); sb == nil || len(sb.steps) != 3 {
		t.Fatalf("trace at the divsd entry = %+v, want the installed 3-step trace", sb)
	}
}

// overlapSrc has two trap sites, A (divsd f0) and B (divsd f1), where B is
// the second step of A's trace [A, B, movsd]. Trips 0–9 enter at A, trips
// 10–19 jump straight to B, and trips 20–29 enter at A again. Under
// sequence emulation A's uncached traces cover B, so B counts toward the
// threshold only from trip 10.
const overlapSrc = `
.text
	mov r0, $0
loop:
	movsd f0, =1.0
	movsd f1, =1.0
	cmp r0, $10
	jl viaA
	cmp r0, $20
	jl viaB
viaA:
	divsd f0, =3.0
viaB:
	divsd f1, =7.0
	movsd f2, f1
	inc r0
	cmp r0, $30
	jl loop
	outf f0
	outf f1
	outf f2
	halt
`

// TestJITCompileInsideOlderTrace: compiling a trace at B, inside the span of
// A's older trace, leaves A's trace installed at its full length. A's trace
// runs B's instruction exactly as B's own trace does, it only skips B's
// dispatch, so nothing about it went stale.
func TestJITCompileInsideOlderTrace(t *testing.T) {
	native, _ := runNative(t, overlapSrc)
	virt, m, vm := runSB(t, overlapSrc, Config{MaxSequenceLen: 16, JITThreshold: 3}, nil)
	if virt != native {
		t.Fatalf("output diverged:\nnative: %sfpvm:  %s", native, virt)
	}
	idx, _ := m.InstIndex(findOpAddr(m, isa.OpDivsd))
	a, b := vm.sblocks[idx], vm.sblocks[idx+1]
	if a == nil || b == nil {
		t.Fatalf("traces at A and B: %v, %v; want both installed", a != nil, b != nil)
	}
	if a.n != 3 || b.n != 2 {
		t.Fatalf("trace lengths A=%d B=%d, want 3 and 2", a.n, b.n)
	}
	// A compiles on trip 2 and B on trip 12; every other trip past them is
	// a hit: 7 + 7 at first, then all 10 of trips 20–29 at A.
	if m.Stats.SBCompiled != 2 || m.Stats.SBHits != 24 {
		t.Fatalf("%d compiled, %d hits; want 2 and 24", m.Stats.SBCompiled, m.Stats.SBHits)
	}
}

// TestJITReattachRearms: a pooled-style Reset+Reattach must start with a cold
// cache — the second tenant recompiles from scratch and reproduces a fresh
// session bit for bit.
func TestJITReattachRearms(t *testing.T) {
	cfg := Config{System: arith.Vanilla{}, JITThreshold: 3}
	prog := asm.MustAssemble(jitHotSrc)

	var fresh bytes.Buffer
	fm, err := machine.New(prog, &fresh)
	if err != nil {
		t.Fatal(err)
	}
	fvm := Attach(fm, cfg)
	if err := fm.Run(0); err != nil {
		t.Fatal(err)
	}

	var first bytes.Buffer
	m, err := machine.New(prog, &first)
	if err != nil {
		t.Fatal(err)
	}
	vm := Attach(m, cfg)
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if vm.sblocks == nil {
		t.Fatal("premise broken: no superblock cache allocated")
	}

	var second bytes.Buffer
	if err := m.Reset(m.Image(), &second, 0); err != nil {
		t.Fatal(err)
	}
	vm.Reattach(m, cfg)
	for _, sb := range vm.sblocks {
		if sb != nil {
			t.Fatal("reattach left a stale superblock armed")
		}
	}
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}

	if second.String() != fresh.String() {
		t.Fatalf("reattached output differs from fresh:\nfresh: %sreused: %s",
			fresh.String(), second.String())
	}
	if m.Cycles != fm.Cycles {
		t.Fatalf("reattached cycles %d differ from fresh %d", m.Cycles, fm.Cycles)
	}
	if !reflect.DeepEqual(m.Stats, fm.Stats) {
		t.Fatalf("reattached machine stats diverged:\nfresh:  %+v\nreused: %+v",
			fm.Stats, m.Stats)
	}
	// Host wall-clock GC timing is the one legitimately nondeterministic field.
	vm.Stats.GC.LastWall, fvm.Stats.GC.LastWall = 0, 0
	if vm.Stats != fvm.Stats {
		t.Fatalf("reattached VM stats diverged:\nfresh:  %+v\nreused: %+v",
			fvm.Stats, vm.Stats)
	}
}

// TestJITEntryBarrierBlacklisted: a correctness site at the would-be entry
// must refuse compilation outright (its dispatch semantics cannot be
// shadowed by a superblock patch) and blacklist the site.
func TestJITEntryBarrierBlacklisted(t *testing.T) {
	native, _ := runNative(t, jitHotSrc)
	virt, m, vm := runSB(t, jitHotSrc, Config{JITThreshold: 3}, func(m *machine.Machine) {
		loadSites(m, map[uint64]int64{findOpAddr(m, isa.OpDivsd): 1})
	})
	if virt != native {
		t.Fatalf("output diverged:\nnative: %sfpvm:  %s", native, virt)
	}
	if m.Stats.SBCompiled != 0 || m.Stats.SBHits != 0 {
		t.Fatalf("compiled through an entry barrier: %d compiled, %d hits",
			m.Stats.SBCompiled, m.Stats.SBHits)
	}
	idx, _ := m.InstIndex(findOpAddr(m, isa.OpDivsd))
	if !vm.sbFailed[idx] {
		t.Fatal("entry-barrier site not blacklisted from recompilation")
	}
}

// TestJITCompileFaultDegrades: an injected failure at the sb-compile seam is
// absorbed as a typed degradation — the site keeps its classic per-trap path,
// output stays native-identical, and nothing panics.
func TestJITCompileFaultDegrades(t *testing.T) {
	native, _ := runNative(t, jitHotSrc)
	prog := asm.MustAssemble(jitHotSrc)
	var out bytes.Buffer
	m, err := machine.New(prog, &out)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(faultinject.Config{
		Sites: map[uint64]faultinject.Seam{
			findOpAddr(m, isa.OpDivsd): faultinject.SeamSBCompile,
		},
	})
	vm := Attach(m, Config{System: arith.Vanilla{}, JITThreshold: 3, Inject: inj})
	if err := m.Run(0); err != nil {
		t.Fatalf("run: %v", err)
	}
	if out.String() != native {
		t.Fatalf("output diverged:\nnative: %sfpvm:  %s", native, out.String())
	}
	if m.Stats.SBCompiled != 0 {
		t.Fatalf("SBCompiled = %d, want 0 after an injected compile fault", m.Stats.SBCompiled)
	}
	if got := vm.Stats.DegradeByCause[telemetry.DegradeJIT]; got != 1 {
		t.Fatalf("DegradeJIT = %d, want 1", got)
	}
	// Blacklisted: deliveries continue for the rest of the run (50 iterations,
	// one trap each).
	if vm.Stats.Traps != 50 {
		t.Fatalf("Traps = %d, want 50 (classic path retained)", vm.Stats.Traps)
	}
}

// TestJITTelemetry checks the tier's events land in the ring and the per-site
// table: a compile and zero-delivery hits attributed to the entry.
func TestJITTelemetry(t *testing.T) {
	prog := asm.MustAssemble(jitHotSrc)
	var out bytes.Buffer
	m, err := machine.New(prog, &out)
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.NewCollector(0)
	m.Telem = col
	Attach(m, Config{System: arith.Vanilla{}, JITThreshold: 3})
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}

	var trace bytes.Buffer
	if err := col.WriteJSONL(&trace); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace.String(), "sb-compile") {
		t.Errorf("JSONL trace missing the sb-compile event:\n%s", trace.String())
	}
	ranks := col.TopSites(4)
	var sbHits uint64
	for _, r := range ranks {
		sbHits += r.SBHits
	}
	if sbHits != m.Stats.SBHits {
		t.Fatalf("per-site SBHits sum %d disagrees with machine stat %d",
			sbHits, m.Stats.SBHits)
	}
}
