// The trace-JIT superblock tier: trap-and-translate, the paper's §3 design
// point between trap-and-emulate and static binary transformation. Sequence
// emulation amortizes one delivery over a straight-line FP run but still pays
// that delivery — plus a decode-cache probe and a bind — for every visit.
// This tier eliminates all three: when a site's uncached-trace count crosses
// Config.JITThreshold, the run is compiled once into a superblock — a cached
// trace whose flat slice of steps each holds a pre-decoded, pre-bound copy
// of its instruction and a pre-resolved per-kind runner — and the VM's patch
// handler is installed at the entry. A later visit dispatches through the
// patch slot (one bounds-checked compare, CostModel.PatchCheck) and multi-retires
// the whole run through the TrapFrame.Coalesced path with zero delivery, zero
// decode, and zero bind; only the arithmetic system's own per-op cost and the
// boxing cost remain, which is the §6 floor for any delivery mechanism.
//
// A superblock never goes stale, so nothing invalidates it. It caches what
// the interpreter would do, and every input to that is fixed for the run:
// the instruction stream is the immutable machine.Image, the correctness
// sites come only from the image's site table (Machine.InstallSites, at
// load, before the VM attaches; no machine API sets one site), the patch
// slot belongs to the VM, and a trace body dispatches no patch, so a later
// compile inside an older trace's span leaves that trace exact.
// VM.Reattach re-arms the cache empty.
package fpvm

import (
	"fpvm/internal/faultinject"
	"fpvm/internal/machine"
	"fpvm/internal/telemetry"
)

// sbTraceCapDefault bounds a superblock's length when sequence emulation is
// disabled (Config.MaxSequenceLen = 0); with it enabled, the trace cap
// matches the coalescing cap so both tiers retire identical runs.
const sbTraceCapDefault = 64

// traceCap returns the superblock length bound in instructions (entry
// included).
func (vm *VM) traceCap() int {
	if vm.cfg.MaxSequenceLen > 0 {
		return 1 + vm.cfg.MaxSequenceLen
	}
	return sbTraceCapDefault
}

// noteJIT accounts one cleanly emulated uncached trace rooted at f's site
// toward the compile threshold, compiling a superblock on the crossing.
// Called only from enterTrace after the trace's entry emulated cleanly, so
// degrading sites never accumulate.
func (vm *VM) noteJIT(f *machine.TrapFrame) {
	idx := f.Idx
	if idx < 0 || idx >= len(vm.jitCounts) || vm.sbFailed[idx] || vm.sblocks[idx] != nil {
		return
	}
	vm.jitCounts[idx]++
	if uint64(vm.jitCounts[idx]) < uint64(vm.cfg.JITThreshold) {
		return
	}
	vm.compileSB(f)
}

// compileSB builds and installs the superblock rooted at f's site. The trace
// is measured by traceExtent, as an uncached trace is, so both kinds share
// one stop-condition contract. Each instruction pays the full decode + bind
// cost once, here; a compile failure — injected at the sb-compile seam or a
// translate refusal — is classified as a DegradeJIT degradation and the site
// is blacklisted, keeping its uncached path.
func (vm *VM) compileSB(f *machine.TrapFrame) {
	m := f.M
	idx := f.Idx
	if _, site := m.CorrectnessSite(f.Inst.Addr); site {
		// A correctness site at the entry needs its delivery before the
		// instruction runs, which a patch at the entry would shadow; never
		// compile here.
		vm.sbFailed[idx] = true
		return
	}
	if j := vm.inject; j != nil && j.Fire(faultinject.SeamSBCompile, f.Inst.Addr) {
		vm.degradeJITCompile(m, f)
		return
	}

	// Measure the trace: entry plus the straight-line run behind it.
	n := vm.traceExtent(m, idx, vm.traceCap())
	insts := m.Insts()

	// Pre-decode and pre-bind every instruction of the trace into owned
	// steps. The slice is allocated at its final length before translation
	// fills it, so each decodedInst's srcs view stays pointed at its own
	// inline buffer (append-style growth would copy the structs and dangle
	// the views).
	sb := &trace{entry: idx, n: n, steps: make([]step, n)}
	for i := range sb.steps {
		vm.Stats.Cycles.Decode += vm.costs.DecodeMiss
		vm.Stats.Cycles.Bind += vm.costs.Bind
		m.Cycles += vm.costs.DecodeMiss + vm.costs.Bind
		if err := sb.steps[i].compile(&insts[idx+i]); err != nil {
			vm.degradeJITCompile(m, f)
			return
		}
	}

	// Install: the VM's patch handler at the entry makes the machine enter
	// the cached trace instead of executing (and re-trapping) the entry. A
	// trap-and-patch site already carries the same handler.
	m.SetPatch(f.Inst.Addr, vm.patchFn)
	vm.sblocks[idx] = sb
	m.Stats.SBCompiled++
	if t := m.Telem; t != nil {
		t.SBCompile(idx, f.Inst.Addr, f.Inst.Op, len(sb.steps), m.Cycles)
	}
	// Publish to the shared warm cache: the steps are a pure function of the
	// immutable program text, so another session attached to the same cache
	// and loading the same image can adopt them instead of recompiling. The
	// slice is shared read-only from here on.
	vm.cfg.SBCache.publish(m.Image(), idx, sb.steps)
}

// degradeJITCompile records a failed superblock compile. Unlike the main
// degrade engine it re-executes nothing — the trace that triggered the
// compile already emulated and retired its run, so machine state is exactly
// the interpreted state — it only accounts the degradation and blacklists
// the site from recompilation.
func (vm *VM) degradeJITCompile(m *machine.Machine, f *machine.TrapFrame) {
	vm.sbFailed[f.Idx] = true
	vm.Stats.Degradations++
	vm.Stats.DegradeByCause[telemetry.DegradeJIT]++
	if t := m.Telem; t != nil {
		t.Degradation(f.Idx, f.Inst.Addr, f.Inst.Op, telemetry.DegradeJIT, m.Cycles)
	}
}
