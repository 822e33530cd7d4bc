// The trace-JIT superblock tier: trap-and-translate, the paper's §3 design
// point between trap-and-emulate and static binary transformation. Sequence
// emulation amortizes one delivery over a straight-line FP run but still pays
// that delivery — plus a decode-cache probe and a bind — for every visit.
// This tier eliminates all three: when a site's delivery count crosses
// Config.JITThreshold, the coalesced run is compiled once into a superblock —
// a flat slice of thunks, each holding a pre-decoded, pre-bound copy of its
// instruction and a pre-resolved per-kind runner — and installed as a patch
// at the entry. A later visit dispatches through the patch slot (one
// bounds-checked compare, Cost.PatchCheck) and multi-retires the whole run
// through the TrapFrame.Coalesced path with zero delivery, zero decode, and
// zero bind; only the arithmetic system's own per-op cost and the boxing cost
// remain, which is the §6 floor for any delivery mechanism.
//
// Correctness rests on the invalidation contract. A superblock is a cache of
// what the interpreter would do, so anything that could change the
// interpreter's behavior discards or revalidates it: side-table writes
// (SetPatch / SetCorrectnessSite) advance the
// machine's side-table version, code-segment writes advance its code version,
// and VM.Reattach re-arms the cache empty. On entry the block compares both
// versions; a moved code version is a hard invalidation, a moved side-table
// version triggers revalidation (re-checking the stop-condition predicate
// over the trace) and either restamps the block or discards it. A discarded
// block's entry falls back to native dispatch, re-traps, and takes the
// classic decode→bind→emulate path — the same fallback lattice the typed
// degrade machinery provides for compile failures.
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

// sbThunk is one pre-compiled step of a superblock: an owned decoded
// instruction (decode done, operand slots resolved into the inline buffer —
// the paper's "bound" form) and the per-kind runner resolved at compile time.
type sbThunk struct {
	d   decodedInst
	run func(*VM, *machine.Machine, *decodedInst) error
}

// superblock is one cached trace: the trace (entry, thunks) plus its
// validity stamps. sideVer/codeVer snapshot the machine's version counters at
// compile (or last revalidation); hits counts zero-delivery entries served.
type superblock struct {
	trace

	sideVer uint64
	codeVer uint64
	hits    uint64
}

// traceCap returns the superblock length bound in instructions (entry
// included).
func (vm *VM) traceCap() int {
	if vm.cfg.MaxSequenceLen > 0 {
		return 1 + vm.cfg.MaxSequenceLen
	}
	return sbTraceCapDefault
}

// noteJIT accounts one successfully emulated FP-trap delivery at f's site
// toward the compile threshold, compiling a superblock on the crossing.
// Called only from handleFPTrap after the whole delivery emulated cleanly, so
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
// is measured by traceExtent, as the trap handler's uncached trace is, so
// both kinds share one stop-condition contract. Each instruction pays the
// full decode + bind cost once, here; a compile failure — injected at the
// sb-compile seam or a translate refusal — is classified as a DegradeJIT
// degradation and the site is blacklisted, keeping its classic per-trap
// path.
func (vm *VM) compileSB(f *machine.TrapFrame) {
	m := f.M
	idx := f.Idx
	if m.SeqBarrier(idx) {
		// A patch or correctness site at the entry demands its own dispatch
		// semantics that a superblock patch would shadow; never compile here.
		vm.sbFailed[idx] = true
		return
	}
	if j := vm.inject; j != nil && j.Fire(faultinject.SeamSBCompile, f.Inst.Addr) {
		vm.degradeJITCompile(m, f)
		return
	}

	// Measure the trace: entry plus the straight-line run behind it.
	n := traceExtent(m, idx, vm.traceCap())
	insts := m.Insts()

	// Pre-decode and pre-bind every instruction of the trace into owned
	// thunks. The slice is allocated at its final length before translation
	// fills it, so each decodedInst's srcs view stays pointed at its own
	// inline buffer (append-style growth would copy the structs and dangle
	// the views).
	sb := &superblock{trace: trace{entry: idx, n: n, thunks: make([]sbThunk, n)}}
	for i := range sb.thunks {
		t := &sb.thunks[i]
		vm.Stats.Cycles.Decode += vm.costs.DecodeMiss
		vm.Stats.Cycles.Bind += vm.costs.Bind
		m.Cycles += vm.costs.DecodeMiss + vm.costs.Bind
		if err := translate(insts[idx+i], &t.d); err != nil {
			vm.degradeJITCompile(m, f)
			return
		}
		t.run = kindRunners[t.d.kind]
	}

	// Install: the entry patch makes the machine dispatch to sbHandler
	// instead of executing (and re-trapping) the entry. The version snapshot
	// is taken after our own SetPatch so the install does not immediately
	// read as a foreign side-table write.
	m.SetPatch(f.Inst.Addr, vm.sbFn)
	sb.sideVer = m.SideTableVersion()
	sb.codeVer = m.CodeVersion()
	vm.sblocks[idx] = sb
	m.Stats.SBCompiled++
	if t := m.Telem; t != nil {
		t.SBCompile(idx, f.Inst.Addr, f.Inst.Op, len(sb.thunks), m.Cycles)
	}
	// Publish to the shared warm cache: the thunks are a pure function of the
	// immutable program text, so another session attached to the same cache
	// (and the same *isa.Program) can adopt them instead of recompiling. The
	// slice itself is shared — it is read-only from here on — while version
	// stamps and hit counts stay in each session's private wrapper.
	vm.cfg.SBCache.publish(m.Prog, idx, sb.thunks)
}

// degradeJITCompile records a failed superblock compile. Unlike the main
// degrade engine it re-executes nothing — the delivery that triggered the
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

// sbHandler is the patch handler installed at a superblock's entry: validate
// the cached trace, check the entry contract, then run it, multi-retiring the
// run through TrapFrame.Coalesced. Returning handled=false sends the entry
// through native dispatch: after an invalidation it re-traps into the
// uncached path, and on a visit where it would not trap it retires natively,
// exactly as it would without FPVM.
func (vm *VM) sbHandler(f *machine.TrapFrame) (bool, error) {
	idx := f.Idx
	if idx < 0 || idx >= len(vm.sblocks) || vm.sblocks[idx] == nil {
		return false, nil
	}
	m := f.M
	sb := vm.sblocks[idx]
	if m.CodeVersion() != sb.codeVer || !vm.revalidateSB(m, sb) {
		vm.invalidateSB(m, idx)
		return false, nil
	}
	// The entry contract: a trace starts only at an instruction that traps
	// on this visit. Emulating an entry that native execution retires
	// without a trap would hand the alternative arithmetic an operation the
	// plain trap-and-emulate run never sees, and could change the output.
	if !m.WouldTrap(idx) {
		return false, nil
	}

	sb.hits++
	m.Stats.SBHits++
	retired, _, err := vm.runTrace(m, &sb.trace)
	if err != nil {
		return false, err
	}
	if t := m.Telem; t != nil {
		t.SBHit(idx, f.Inst.Addr, f.Inst.Op, retired)
	}
	f.Coalesced = retired - 1

	// The trace allocates shadow cells like any emulation; keep the epoch GC
	// running on the same trigger the trap path uses.
	vm.maybeGC()
	return true, nil
}

// revalidateSB checks a superblock against the current side table. An
// unmoved version is exact. A moved version means some SetPatch /
// SetCorrectnessSite happened since the snapshot — most are at unrelated
// sites, so instead of cascade-invalidating on every write the block
// re-checks its own trace: the entry must carry no correctness site (its
// patch slot is the block's own) and every body instruction must still pass
// the stop-condition predicate. A clean re-check restamps the snapshot; a
// dirty one reports false and the caller discards the block.
func (vm *VM) revalidateSB(m *machine.Machine, sb *superblock) bool {
	cur := m.SideTableVersion()
	if cur == sb.sideVer {
		return true
	}
	if m.SiteBarrier(sb.entry) || traceExtent(m, sb.entry, sb.n) != sb.n {
		return false
	}
	sb.sideVer = cur
	return true
}

// invalidateSB discards the superblock at idx: the local cache entry is
// dropped (a shared-cache original, if any, is untouched — it stays valid
// for sessions whose side tables still permit it), the entry patch removed
// (native dispatch resumes, re-trapping into the classic path), and the
// site's threshold counter reset so it must prove itself hot again before
// recompiling.
func (vm *VM) invalidateSB(m *machine.Machine, idx int) {
	sb := vm.sblocks[idx]
	if sb == nil {
		return
	}
	vm.sblocks[idx] = nil
	vm.jitCounts[idx] = 0
	in := m.Insts()[idx]
	m.SetPatch(in.Addr, nil)
	m.Stats.SBInvalidations++
	if t := m.Telem; t != nil {
		t.SBInvalidate(idx, in.Addr, in.Op, sb.hits, m.Cycles)
	}
}
