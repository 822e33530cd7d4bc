package fpvm

import (
	"bytes"
	"errors"
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

// jitHotInstsPerIter and jitHotPrelude describe jitHotSrc's shape for
// budget-pause arithmetic: one prelude instruction, then seven per iteration.
const (
	jitHotPrelude      = 1
	jitHotInstsPerIter = 7
)

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
func sbAt(t *testing.T, m *machine.Machine, vm *VM, op isa.Op) *superblock {
	t.Helper()
	idx, ok := m.InstIndex(findOpAddr(m, op))
	if !ok {
		t.Fatalf("%v is not on an instruction boundary", op)
	}
	return vm.sblocks[idx]
}

// TestJITDisabledIsBitIdentical pins the off switch: JITThreshold == 0 must
// reproduce the classic pipeline exactly — same output, same modeled cycles,
// same trap count — while arming the tier must strictly beat sequence
// emulation alone on both traps and cycles.
func TestJITDisabledIsBitIdentical(t *testing.T) {
	run := func(cfg Config) (string, uint64, uint64) {
		prog := asm.MustAssemble(lorenzSrc)
		var out bytes.Buffer
		m, err := machine.New(prog, &out)
		if err != nil {
			t.Fatal(err)
		}
		cfg.System = arith.Vanilla{}
		vm := Attach(m, cfg)
		if err := m.Run(0); err != nil {
			t.Fatal(err)
		}
		return out.String(), m.Cycles, vm.Stats.Traps
	}
	o1, c1, t1 := run(Config{})
	o2, c2, t2 := run(Config{JITThreshold: 0})
	if o1 != o2 || c1 != c2 || t1 != t2 {
		t.Fatalf("JITThreshold=0 differs from default: cycles %d vs %d, traps %d vs %d",
			c1, c2, t1, t2)
	}
	oSeq, cSeq, tSeq := run(Config{MaxSequenceLen: 16})
	oJit, cJit, tJit := run(Config{MaxSequenceLen: 16, JITThreshold: 4})
	if oSeq != oJit {
		t.Fatalf("jit tier changed output:\nseq: %sjit: %s", oSeq, oJit)
	}
	if tJit >= tSeq {
		t.Fatalf("jit tier did not cut traps: %d (jit) vs %d (seqemu)", tJit, tSeq)
	}
	if cJit >= cSeq {
		t.Fatalf("jit tier did not cut cycles: %d (jit) vs %d (seqemu)", cJit, cSeq)
	}
}

// TestJITCompilesAndHits is the tentpole happy path: a hot Lorenz run
// compiles at least one superblock, serves the loop from it with zero
// deliveries, never invalidates, and still prints exactly what native
// execution prints.
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
	if m.Stats.SBInvalidations != 0 {
		t.Fatalf("spurious invalidations on an undisturbed run: %d", m.Stats.SBInvalidations)
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
	if len(sb.thunks) != 3 {
		t.Fatalf("trace length %d, want 3 (divsd + two moves)", len(sb.thunks))
	}
	if sb.hits != m.Stats.SBHits {
		t.Fatalf("per-block hits %d disagree with machine stat %d", sb.hits, m.Stats.SBHits)
	}
}

// pauseAfterIters runs m until the end of iteration n of jitHotSrc and
// asserts the run is paused (not halted) at that instruction boundary.
func pauseAfterIters(t *testing.T, m *machine.Machine, n int) {
	t.Helper()
	budget := uint64(jitHotPrelude + n*jitHotInstsPerIter)
	err := m.Run(budget)
	var be *machine.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("expected budget pause after %d iterations, got %v", n, err)
	}
	if got := m.Stats.Instructions; got != budget {
		t.Fatalf("paused at %d retirements, want boundary %d", got, budget)
	}
}

// sbInvalidationCase drives the pause → mutate → resume protocol: run
// jitHotSrc far enough to compile and hit the superblock, apply a
// side-table or code mutation, finish the run, and check the block was
// discarded and rebuilt with the expected trace length — all bit-identical
// to native output.
func sbInvalidationCase(t *testing.T, mutate func(*machine.Machine), wantTraceLen int) {
	t.Helper()
	native, _ := runNative(t, jitHotSrc)

	prog := asm.MustAssemble(jitHotSrc)
	var out bytes.Buffer
	m, err := machine.New(prog, &out)
	if err != nil {
		t.Fatal(err)
	}
	vm := Attach(m, Config{System: arith.Vanilla{}, JITThreshold: 3})
	pauseAfterIters(t, m, 20)
	if m.Stats.SBCompiled != 1 || m.Stats.SBHits == 0 {
		t.Fatalf("premise broken at pause: %d compiled, %d hits",
			m.Stats.SBCompiled, m.Stats.SBHits)
	}

	mutate(m)

	if err := m.Run(0); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if out.String() != native {
		t.Fatalf("output diverged after invalidation:\nnative: %sfpvm:  %s",
			native, out.String())
	}
	if m.Stats.SBInvalidations != 1 {
		t.Fatalf("SBInvalidations = %d, want 1", m.Stats.SBInvalidations)
	}
	// The site must prove itself hot again, then recompile against the new
	// side table / code version.
	if m.Stats.SBCompiled != 2 {
		t.Fatalf("SBCompiled = %d, want 2 (initial + rebuild)", m.Stats.SBCompiled)
	}
	sb := sbAt(t, m, vm, isa.OpDivsd)
	if sb == nil {
		t.Fatal("no rebuilt superblock at the divsd entry")
	}
	if len(sb.thunks) != wantTraceLen {
		t.Fatalf("rebuilt trace length %d, want %d", len(sb.thunks), wantTraceLen)
	}
}

// TestJITInvalidateOnPatch: a foreign patch installed mid-trace must fail
// revalidation on the next entry; the rebuilt block stops at the new barrier.
func TestJITInvalidateOnPatch(t *testing.T) {
	sbInvalidationCase(t, func(m *machine.Machine) {
		m.SetPatch(traceBodyAddr(m), func(*machine.TrapFrame) (bool, error) {
			return false, nil // decline: dispatch proceeds natively
		})
	}, 1)
}

// TestJITInvalidateOnCorrectnessSite: a correctness site appearing inside the
// cached trace is a stop condition the block no longer satisfies.
func TestJITInvalidateOnCorrectnessSite(t *testing.T) {
	sbInvalidationCase(t, func(m *machine.Machine) {
		m.SetCorrectnessSite(traceBodyAddr(m), 1)
	}, 1)
}

// TestJITInvalidateOnCodeWrite: any store below the writable base moves the
// code version and hard-invalidates, even when the written bits are identical
// — the tier does not inspect the write, only the version. The rebuilt block
// re-traces the full run (no new barrier exists).
func TestJITInvalidateOnCodeWrite(t *testing.T) {
	sbInvalidationCase(t, func(m *machine.Machine) {
		v, err := m.ReadU64(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.WriteU64(0, v); err != nil {
			t.Fatal(err)
		}
	}, 3)
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
		m.SetCorrectnessSite(findOpAddr(m, isa.OpDivsd), 1)
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
// table: a compile, zero-delivery hits attributed to the entry, and an
// invalidation after a mid-run side-table write.
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
	pauseAfterIters(t, m, 20)
	m.SetCorrectnessSite(traceBodyAddr(m), 1)
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}

	var trace bytes.Buffer
	if err := col.WriteJSONL(&trace); err != nil {
		t.Fatal(err)
	}
	for _, ev := range []string{"sb-compile", "sb-invalidate"} {
		if !strings.Contains(trace.String(), ev) {
			t.Errorf("JSONL trace missing %q event:\n%s", ev, trace.String())
		}
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
