package fpvm

import (
	"fmt"

	"fpvm/internal/faultinject"
	"fpvm/internal/isa"
	"fpvm/internal/machine"
	"fpvm/internal/telemetry"
)

// Traces are how FPVM retires floating point work. A trace is a straight-line
// run of instructions rooted at the instruction that trapped, and one
// executor, runTrace, retires every trace, so sanitizer attribution,
// telemetry PCs, fault seams and the degrade-and-cut path live in one place.
// A trace comes in two kinds:
//
//   - An uncached trace is what the FP trap handler runs: the faulting
//     instruction plus, under sequence emulation (Config.MaxSequenceLen), the
//     following straight-line FP run coalesced into the same delivery. Figure
//     9 shows per-trap cost dominated by delivery (~1,000 cycles of hardware
//     dispatch plus ~2,600 of kernel signal path); coalescing is the
//     software-only attack on it, so a basic block's worth of FP work pays for
//     one trap instead of N. Each step still pays decode-cache + bind +
//     emulate, but zero delivery, and the trace is not kept.
//   - A cached trace is a superblock (superblock.go): the same run, compiled
//     once into pre-decoded, pre-bound thunks and kept behind a patch at its
//     entry. Each step pays only the thunk dispatch.
//
// Both kinds obey one entry contract: a trace starts only at an instruction
// that traps on this visit. An uncached trace meets it by construction (it
// starts at a delivered trap); a cached one checks it at entry (sbHandler).

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
// entry. thunks is nil for an uncached trace, which decodes and binds each
// step through the decode cache as it goes; a cached trace carries one
// pre-compiled thunk per step.
type trace struct {
	entry  int
	n      int
	thunks []sbThunk
}

// coalescable is the conservative stop-condition predicate, mirroring the
// §4.2 virtualizability holes. A run continues only through instructions
// that are (a) plain FP arithmetic or FP moves — anything else (integer
// ops, branches, bitwise FP, I/O, callext/trapc, halt) must go back through
// the machine's dispatcher; (b) in the same scalar/packed lane mode as the
// faulting instruction; and (c) free of side-table entries (patch sites and
// correctness sites carry their own required dispatch semantics).
func coalescable(m *machine.Machine, idx int, op isa.Op, packed bool) bool {
	if !op.IsFPArith() && !op.IsFPMove() {
		return false
	}
	if op.IsPacked() != packed {
		return false
	}
	return !m.SeqBarrier(idx)
}

// traceExtent returns the length of the trace rooted at entry under the
// current side table: the entry plus the coalescable run behind it, at most
// limit instructions in all. Every trace is measured here — the trap
// handler's uncached run, a superblock compile, and the revalidation and
// adoption of a cached one — so all of them share one stop-condition
// contract.
func traceExtent(m *machine.Machine, entry, limit int) int {
	insts := m.Insts()
	packed := insts[entry].Op.IsPacked()
	end := entry + 1
	for end < len(insts) && end-entry < limit && coalescable(m, end, insts[end].Op, packed) {
		end++
	}
	return end - entry
}

// runTrace is the trace executor. Each step attributes itself to its own PC
// (telemetry, fault injection, sanitizer) and retires: an uncached step
// through decode → bind → emulate, a cached step through its thunk at
// SBDispatch cost. A degradable fault retires the step natively through the
// degrade engine and cuts the trace there; the degraded step counts as
// retired. A genuine machine fault propagates with the steps retired before
// it.
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
		var serr error
		switch {
		case tr.thunks != nil:
			t := &tr.thunks[i]
			vm.Stats.Cycles.Emulate += vm.costs.SBDispatch
			m.Cycles += vm.costs.SBDispatch
			if serr = t.run(vm, m, &t.d); serr == nil {
				m.Advance(t.d.inst)
			}
		default:
			serr = vm.emulateOne(m, idx, in)
		}
		if serr != nil {
			cause, ok := asDegrade(serr)
			if !ok {
				return retired, false, serr // genuine machine fault: native execution would die too
			}
			if derr := vm.degrade(m, *in, idx, cause); derr != nil {
				return retired, false, derr
			}
			return retired + 1, true, nil
		}
		retired++
	}
	return retired, false, nil
}

// handleFPTrap is the SIGFPE-analog entry point: it runs the faulting
// instruction, plus the coalesced run behind it under sequence emulation, as
// an uncached trace, counts the delivery toward the trace-JIT threshold, and
// occasionally collects garbage (§4.1). Any degradable failure on that path —
// unsupported form, injected fault, arena hard cap — falls back to the
// graceful-degradation engine instead of killing the run.
func (vm *VM) handleFPTrap(f *machine.TrapFrame) error {
	vm.Stats.Traps++
	m := f.M
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
		tr.n = traceExtent(m, f.Idx, 1+vm.cfg.MaxSequenceLen)
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

	if vm.cfg.MaxSequenceLen > 0 {
		n := retired - 1
		if n > 0 {
			vm.Stats.Sequences++
			if t := m.Telem; t != nil {
				t.Sequence(f.Idx, f.Inst.Addr, f.Inst.Op, retired, m.Cycles)
			}
		}
		vm.Stats.SeqLenHist[seqBucket(retired)]++
		f.Coalesced = n
	}

	// Count the delivery toward the site's compile threshold. A delivery
	// whose faulting instruction degraded returned above, so a site that
	// cannot emulate cleanly never accumulates.
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

// emulateOne runs the full decode → bind → emulate path for one instruction.
func (vm *VM) emulateOne(m *machine.Machine, idx int, in *isa.Inst) error {
	d, err := vm.decode(idx, *in)
	if err != nil {
		return err
	}
	if err := vm.bind(d); err != nil {
		return err
	}
	return vm.emulate(m, d)
}

// maybeGC runs the epoch collector once enough shadow cells have been
// allocated since the last pass (§4.1).
func (vm *VM) maybeGC() {
	if vm.Arena.Allocs()-vm.lastGC >= vm.gcEvery {
		vm.RunGC()
	}
}
