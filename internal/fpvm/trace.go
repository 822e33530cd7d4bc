package fpvm

import (
	"fmt"

	"fpvm/internal/faultinject"
	"fpvm/internal/isa"
	"fpvm/internal/machine"
	"fpvm/internal/telemetry"
)

// Traces are how FPVM retires floating point work. A trace is a straight-line
// run of instructions rooted at an instruction that traps, and one executor,
// runTrace, retires every trace, so sanitizer attribution, telemetry PCs,
// fault seams and the degrade-and-cut path live in one place. A trace comes
// in two kinds:
//
//   - An uncached trace is the trapping instruction plus, under sequence
//     emulation (Config.MaxSequenceLen), the following straight-line FP run
//     coalesced behind it. Figure 9 shows per-trap cost dominated by
//     delivery (~1,000 cycles of hardware dispatch plus ~2,600 of kernel
//     signal path); coalescing is the software-only attack on it, so a basic
//     block's worth of FP work pays for one trap instead of N. Each step
//     still pays decode-cache + bind + emulate, and the trace is not kept.
//   - A cached trace is a superblock (superblock.go): the same run, compiled
//     once into pre-decoded, pre-bound steps and kept behind a patch at its
//     entry. Each step pays only the superblock dispatch.
//
// Both kinds run the same step form (decode.go): a decode-cache entry is
// the decoded instruction plus its pre-resolved runner, exactly what a
// superblock holds per instruction, so the two kinds differ only in how a
// step is found and what it is charged.
//
// Every trace is entered through enterTrace, from one of two hooks: the FP
// trap handler (a delivered trap) and the VM's patch handler (a
// trap-and-patch site or a cached trace's entry, on a visit where the
// instruction would trap). Either way the cached trace runs if the site has
// one; otherwise an uncached trace runs and counts toward the JIT threshold.
// So trap-and-patch (patchmode.go) composes with sequence emulation and the
// JIT exactly as trap-and-emulate does, minus the delivery.
//
// Both hooks keep one entry contract: a trace starts only at an instruction
// that traps on this visit. A delivered trap meets it by construction; the
// patch handler checks it (Machine.WouldTrap) and otherwise lets the
// instruction retire natively.

// SeqLenBuckets is the number of buckets in Stats.SeqLenHist. Bucket
// boundaries are powers of two; SeqLenBucketLabel names them.
const SeqLenBuckets = 8

// seqBucket maps a per-delivery run length (faulting instruction included)
// to its histogram bucket: 1, 2, 3–4, 5–8, 9–16, 17–32, 33–64, 65+.
func seqBucket(n int) int {
	switch {
	case n <= 1:
		return 0
	case n == 2:
		return 1
	case n <= 4:
		return 2
	case n <= 8:
		return 3
	case n <= 16:
		return 4
	case n <= 32:
		return 5
	case n <= 64:
		return 6
	default:
		return 7
	}
}

// SeqLenBucketLabel returns the human-readable range of histogram bucket i.
func SeqLenBucketLabel(i int) string {
	return [...]string{"1", "2", "3-4", "5-8", "9-16", "17-32", "33-64", "65+"}[i]
}

// trace is a straight-line run of n instructions starting at dense index
// entry. steps is nil for an uncached trace, which finds each step in the
// decode cache as it goes; a cached trace carries its own steps.
type trace struct {
	entry int
	n     int
	steps []step
}

// coalescable is the conservative stop-condition predicate, mirroring the
// §4.2 virtualizability holes. A run continues only through instructions
// that are (a) plain FP arithmetic or FP moves — anything else (integer
// ops, branches, bitwise FP, I/O, callext/trapc, halt) must go back through
// the machine's dispatcher; (b) in the same scalar/packed lane mode as the
// entry; (c) free of a correctness site, whose delivery must precede the
// instruction; and (d) not the entry of an installed cached trace, which
// takes over from there. A trap-and-patch site is no stop: its patch is the
// VM's own trace entry.
func (vm *VM) coalescable(m *machine.Machine, idx int, packed bool) bool {
	in := &m.Insts()[idx]
	if !in.Op.IsFPArith() && !in.Op.IsFPMove() {
		return false
	}
	if in.Op.IsPacked() != packed {
		return false
	}
	if vm.sblocks != nil && vm.sblocks[idx] != nil {
		return false
	}
	_, site := m.CorrectnessSite(in.Addr)
	return !site
}

// traceExtent returns the length of the trace rooted at entry: the entry
// plus the coalescable run behind it, at most limit instructions in all.
// Every trace is measured here — an uncached run and a superblock compile —
// so both share one stop-condition contract.
func (vm *VM) traceExtent(m *machine.Machine, entry, limit int) int {
	insts := m.Insts()
	packed := insts[entry].Op.IsPacked()
	end := entry + 1
	for end < len(insts) && end-entry < limit && vm.coalescable(m, end, packed) {
		end++
	}
	return end - entry
}

// runTrace is the trace executor. Each step attributes itself to its own PC
// (telemetry, fault injection, sanitizer), is found and charged — an
// uncached step through prepare (decode → bind → emulator dispatch), a
// cached step at SBDispatch cost — and runs its runner. A degradable fault
// retires the step natively through the degrade engine and cuts the trace
// there; the degraded step counts as retired. A genuine machine fault
// propagates with the steps retired before it.
func (vm *VM) runTrace(m *machine.Machine, tr *trace) (retired int, cut bool, err error) {
	insts := m.Insts()
	for i := 0; i < tr.n; i++ {
		idx := tr.entry + i
		in := &insts[idx]
		if m.Telem != nil {
			vm.telemPC = in.Addr
		}
		if vm.inject != nil {
			vm.injectPC = in.Addr
		}
		if vm.san != nil {
			vm.sanNote(m, idx, in)
		}
		var st *step
		var serr error
		if tr.steps != nil {
			st = &tr.steps[i]
			vm.Stats.Cycles.Emulate += vm.costs.SBDispatch
			m.Cycles += vm.costs.SBDispatch
		} else {
			st, serr = vm.prepare(m, idx, in)
		}
		if serr == nil {
			if serr = st.run(vm, m, &st.d); serr == nil {
				m.Advance(in)
				retired++
				continue
			}
		}
		cause, ok := asDegrade(serr)
		if !ok {
			return retired, false, serr // genuine machine fault: native execution would die too
		}
		if derr := vm.degrade(m, in, idx, cause); derr != nil {
			return retired, false, derr
		}
		return retired + 1, true, nil
	}
	return retired, false, nil
}

// prepare finds and charges an uncached step: decode through the cache,
// bind, and the emulator's dispatch, each behind its fault seam. Without an
// injector, a decode-cache hit is charged in one block: nothing observes the
// machine's cycle count between the three charges.
func (vm *VM) prepare(m *machine.Machine, idx int, in *isa.Inst) (*step, error) {
	c := &vm.costs
	if st := vm.dcache[idx]; st != nil && vm.inject == nil {
		vm.Stats.DecodeHits++
		vm.Stats.Cycles.Decode += c.DecodeHit
		vm.Stats.Cycles.Bind += c.Bind
		vm.Stats.Cycles.Emulate += c.EmulateBase
		m.Cycles += c.DecodeHit + c.Bind + c.EmulateBase
		return st, nil
	}
	st, err := vm.decode(idx, in)
	if err != nil {
		return nil, err
	}
	if err := vm.bind(in); err != nil {
		return nil, err
	}
	if j := vm.inject; j != nil && j.Fire(faultinject.SeamEmulate, in.Addr) {
		return nil, degradeFault(telemetry.DegradeEmulate, errInjected)
	}
	vm.Stats.Cycles.Emulate += c.EmulateBase
	m.Cycles += c.EmulateBase
	return st, nil
}

// patchHandler is the handler of every patch slot the VM installs: a
// trap-and-patch site (PatchAllFPArith) and a cached trace's entry. It
// checks the entry contract: a visit on which the instruction would not trap
// retires natively (handled=false), exactly as it would without FPVM; one on
// which it would trap enters a trace without a delivery.
func (vm *VM) patchHandler(f *machine.TrapFrame) (bool, error) {
	if !f.M.WouldTrap(f.Idx) {
		return false, nil
	}
	return true, vm.enterTrace(f)
}

// enterTrace is the one trace entry, and the SIGFPE-analog handler the VM
// installs as the machine's FP trap hook. It runs the cached trace rooted
// at f's site if there is one. Otherwise it counts a trap and runs an
// uncached trace of traceExtent length — the faulting instruction plus,
// under sequence emulation, the coalesced run behind it — counts it toward
// the trace-JIT threshold, and occasionally collects garbage (§4.1). Any
// degradable failure on either path — unsupported form, injected fault,
// arena hard cap — falls back to the graceful-degradation engine instead of
// killing the run. f.Coalesced reports the instructions retired beyond the
// entry.
func (vm *VM) enterTrace(f *machine.TrapFrame) error {
	m := f.M
	if vm.sblocks != nil {
		if sb := vm.sblocks[f.Idx]; sb != nil {
			m.Stats.SBHits++
			retired, _, err := vm.runTrace(m, sb)
			if err != nil {
				return err
			}
			if t := m.Telem; t != nil {
				t.SBHit(f.Idx, f.Inst.Addr, f.Inst.Op, retired)
			}
			f.Coalesced = retired - 1
			// The trace allocates shadow cells like any emulation; keep the
			// epoch GC running on the same trigger.
			vm.maybeGC()
			return nil
		}
	}

	vm.Stats.Traps++
	// The run-panic seam models a runtime bug the degradation engine cannot
	// classify: it escapes the VM on purpose. Only the session layer's
	// recover() stands between this panic and the process — that containment
	// (and the pool quarantine behind it) is what the seam exists to prove.
	if vm.inject != nil && vm.inject.Fire(faultinject.SeamRunPanic, f.Inst.Addr) {
		panic(fmt.Sprintf("fpvm: injected run-panic at %#x (%s)", f.Inst.Addr, f.Inst.Op))
	}
	// Read and clear the sticky condition flags, as the paper's handler
	// does in preparation for the next instruction.
	m.MXCSR.ClearFlags()

	tr := trace{entry: f.Idx, n: 1}
	if vm.cfg.MaxSequenceLen > 0 {
		tr.n = vm.traceExtent(m, f.Idx, 1+vm.cfg.MaxSequenceLen)
	}
	retired, cut, err := vm.runTrace(m, &tr)
	if retired > 1 {
		vm.Stats.Coalesced += uint64(retired - 1)
	}
	if err != nil {
		return err
	}
	if cut && retired == 1 {
		return nil // the faulting instruction itself degraded
	}
	f.Coalesced = retired - 1

	if vm.cfg.MaxSequenceLen > 0 {
		if retired > 1 {
			vm.Stats.Sequences++
			if t := m.Telem; t != nil {
				t.Sequence(f.Idx, f.Inst.Addr, f.Inst.Op, retired, m.Cycles)
			}
		}
		vm.Stats.SeqLenHist[seqBucket(retired)]++
	}

	// Count the trace toward the site's compile threshold. A trace whose
	// entry degraded returned above, so a site that cannot emulate cleanly
	// never accumulates.
	if vm.cfg.JITThreshold > 0 {
		vm.noteJIT(f)
	}
	vm.maybeGC()
	return nil
}

// sanNote attributes the instruction about to retire to the sanitizer and
// crosses the sanitize fault seam. An injected sanitizer failure truncates
// the report as a typed account-only degradation — like a failed superblock
// compile, nothing re-executes and the guest run is untouched. Callers
// guard with vm.san != nil, so the disabled path stays a single nil check.
func (vm *VM) sanNote(m *machine.Machine, idx int, in *isa.Inst) {
	if vm.san.Truncated() {
		return
	}
	if j := vm.inject; j != nil && j.Fire(faultinject.SeamSanitize, in.Addr) {
		vm.san.Truncate()
		vm.Stats.Degradations++
		vm.Stats.DegradeByCause[telemetry.DegradeSanitize]++
		if t := m.Telem; t != nil {
			t.Degradation(idx, in.Addr, in.Op, telemetry.DegradeSanitize, m.Cycles)
		}
		return
	}
	vm.san.SetSite(idx, in.Addr)
}

// maybeGC runs the epoch collector once enough shadow cells have been
// allocated since the last pass (§4.1).
func (vm *VM) maybeGC() {
	if vm.Arena.Allocs()-vm.lastGC >= vm.gcEvery {
		vm.RunGC()
	}
}
