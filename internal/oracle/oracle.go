// Package oracle is the repository's differential correctness engine: it
// runs one program three ways — native machine IEEE, FPVM-virtualized
// Vanilla, and FPVM-virtualized high-precision shadows (MPFR, posit) — and
// produces a per-instruction divergence report.
//
// The two halves of the oracle certify different things, exactly as the
// paper's validation methodology (§4.3, §5.2) separates them:
//
//   - The Vanilla half is a *bit-exactness* oracle. A vanilla IEEE-double
//     port pushed through the full trap-and-emulate path must leave the
//     machine in a byte-for-byte identical state to native execution —
//     registers, memory, RFLAGS, output stream, and the instruction-by-
//     instruction RIP trace. Any difference is a virtualization bug, never
//     numerical noise.
//
//   - The shadow half is a *numerical* oracle in the spirit of NSan: a
//     higher-precision re-execution whose per-operation divergence from the
//     IEEE trace measures where the program loses accuracy, and whose trap
//     counts per MXCSR condition class show which exception paths the trap
//     engine actually exercised (the FlowFPX notion of exception-flow
//     coverage).
//
// Both halves run in lockstep with a fresh native machine, resynchronized on
// retirement counts: the virtualized side steps once (which may retire a
// whole coalesced sequence when sequence emulation is enabled), the native
// side catches up to the same Stats.Instructions, and state is compared at
// that boundary — so divergence is localized to the first RIP-sync point at
// which it appears.
package oracle

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"fpvm/internal/arith"
	"fpvm/internal/faultinject"
	"fpvm/internal/fpu"
	"fpvm/internal/fpvm"
	"fpvm/internal/isa"
	"fpvm/internal/machine"
	"fpvm/internal/nanbox"
	"fpvm/internal/patch"
	"fpvm/internal/posit"
	"fpvm/internal/sanitize"
	"fpvm/internal/telemetry"
)

// Target is one program under the oracle.
type Target struct {
	// Name identifies the program in reports ("workload:NAS CG/Class S",
	// "example:quickstart/harmonic", ...).
	Name string
	// Build assembles a fresh program image. It is called once per machine
	// so no state is shared between the native and virtualized runs.
	Build func() (*isa.Program, error)
}

// Options tunes an oracle run.
type Options struct {
	// Systems lists the shadow arithmetic systems to run beyond Vanilla
	// (which always runs — it is the correctness gate). nil selects the
	// default pair the acceptance report requires: MPFR 200-bit and
	// posit<32,2>. An empty non-nil slice runs Vanilla only.
	Systems []arith.System
	// MaxInst bounds each run's retirements (0 = the 200M default).
	MaxInst uint64
	// NoPatch skips static analysis + correctness patching (ablation; the
	// default mirrors the real pipeline and exercises demotion traps).
	NoPatch bool
	// VM is the FPVM configuration of every virtualized run. The harness
	// sets System for each run (Vanilla, then each of Systems) and Inject
	// from the Inject field below; everything else applies as given.
	// MaxSequenceLen > 0 and JITThreshold > 0 make one step retire a whole
	// coalesced run or superblock, which the lockstep comparator absorbs by
	// resynchronizing on retirement counts. A non-nil Sanitize wraps every
	// system as the sanitizer's primary; because the wrapper delegates all
	// architectural decisions and op cycles to its primary, every gate —
	// Vanilla bit-exactness included — must pass unchanged with it on.
	VM fpvm.Config
	// Inject attaches a fault-injection campaign to the virtualized side
	// (each system run gets a fresh injector from this config, so the
	// streams are identical across systems). Degraded instructions execute
	// natively, so with error seams only — no payload corruption — the
	// Vanilla bit-exactness gate must STILL pass: that is the chaos suite's
	// central invariant.
	Inject *faultinject.Config
}

// divergenceTol is the relative error at which a shadow system's
// per-instruction trace is declared numerically divergent from IEEE
// (first-divergence PC). Vanilla ignores it: its tolerance is
// bit-exactness.
const divergenceTol = 1e-6

// DefaultMaxInst bounds oracle runs when Options.MaxInst is zero.
const DefaultMaxInst = 200_000_000

// DefaultSystems returns the shadow systems an all-defaults oracle runs:
// the paper's MPFR 200-bit port as numerical ground truth and posit<32,2>
// as the alternative-format port.
func DefaultSystems() []arith.System {
	return []arith.System{arith.NewMPFR(200), arith.NewPosit(posit.Posit32)}
}

// OpError aggregates the relative error of one abstract operation kind
// between the virtualized trace and the lockstep native IEEE trace. The
// sampler itself is the shared sanitize.Sample — the sanitizer measures
// divergence with exactly the same arithmetic.
type OpError struct {
	sanitize.Sample
}

// SiteError aggregates the shadow divergence attributed to one instruction
// address — the NSan-style sampling that names the operation which produced
// an error, rather than only the operation kind.
type SiteError struct {
	PC uint64 // guest code address
	Op string // mnemonic at that address
	sanitize.Sample
}

// TopDivergentSites returns the n sites with the worst attributed relative
// error, ranked by Max descending (ties broken by PC for stable output).
// n <= 0 returns every site.
func (r *SystemReport) TopDivergentSites(n int) []*SiteError {
	out := make([]*SiteError, 0, len(r.SiteErrors))
	for _, se := range r.SiteErrors {
		out = append(out, se)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Max != out[j].Max {
			return out[i].Max > out[j].Max
		}
		return out[i].PC < out[j].PC
	})
	if n > 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

// CondClasses is the fixed order of the §2 exception condition classes in
// coverage tables.
var CondClasses = []fpu.Flags{
	fpu.FlagInvalid, fpu.FlagDenormal, fpu.FlagDivZero,
	fpu.FlagOverflow, fpu.FlagUnderflow, fpu.FlagInexact,
}

// SystemReport is the oracle's verdict for one arithmetic system.
type SystemReport struct {
	System string

	// Lockstep results.
	LockstepInsts     uint64 // instructions retired in lockstep
	ControlDiverged   bool   // RIP traces separated
	FirstDivergencePC int64  // address of the first diverging instruction, -1 if none
	FirstDivergenceOp string // op at that PC ("" if none)

	// Final-state comparison (after demoting every NaN-box).
	RegsIdentical   bool // R and F files bit-identical to native
	FlagsIdentical  bool // RFLAGS identical
	MemIdentical    bool // full memory image byte-for-byte identical
	OutputIdentical bool // output streams identical

	// Per-op relative error vs the lockstep IEEE trace.
	OpErrors map[arith.Op]*OpError
	// SiteErrors attributes the same lockstep divergence to the individual
	// instruction that produced it, keyed by PC.
	SiteErrors map[uint64]*SiteError

	// Trap and exception coverage.
	FPTraps      uint64            // delivered FP exception traps
	CorrectTraps uint64            // correctness traps (static sites + NaN loads)
	ExtTraps     uint64            // external-call traps
	Emulated     uint64            // scalar emulations
	Coalesced    uint64            // instructions retired inside a delivery by sequence emulation
	TrapsByFlag  map[string]uint64 // trap counts keyed by exact flag set
	CondCover    map[fpu.Flags]uint64

	// Run size.
	Instructions uint64
	Cycles       uint64

	// Resilience accounting.
	Degradations  uint64 // emulation-path failures absorbed natively
	InjectSummary string // injector campaign outcome ("" when no injection)
	// Trace-JIT accounting (Options.VM.JITThreshold > 0).
	SBCompiled      uint64 // superblocks compiled
	SBHits          uint64 // zero-delivery superblock entries served
	SBInvalidations uint64 // superblocks discarded on side-table/code changes
	JITDegradations uint64 // failed superblock compiles absorbed as degradations
	// Sanitizer accounting (Options.VM.Sanitize).
	SanitizeReport       *sanitize.Report // ranked per-PC shadow report, nil when off
	SanitizeDegradations uint64           // sanitize-seam faults absorbed as truncation
	// NaN-box leak gate: after the final demote-everything pass and a
	// closing GC sweep, no shadow cell may survive and no boxed pattern may
	// remain anywhere in machine state.
	ArenaLive   int
	LeakedBoxes int
}

// BitIdentical reports the Vanilla acceptance predicate: no control
// divergence, no per-instruction value divergence, and a byte-for-byte
// identical final state.
func (r *SystemReport) BitIdentical() bool {
	return !r.ControlDiverged && r.FirstDivergencePC < 0 &&
		r.RegsIdentical && r.FlagsIdentical && r.MemIdentical && r.OutputIdentical
}

// Report is a full oracle run over one target.
type Report struct {
	Name string

	// Native reference run.
	NativeInstructions   uint64
	NativeFPInstructions uint64
	NativeCycles         uint64
	NativeOutput         string

	// Vanilla is the bit-exactness verdict; Shadows the numerical oracles.
	Vanilla *SystemReport
	Shadows []*SystemReport
}

// Ok reports whether the target passes the correctness gate.
func (r *Report) Ok() bool { return r.Vanilla.BitIdentical() }

// Run executes the full oracle over one target.
func Run(t Target, o Options) (*Report, error) {
	if o.MaxInst == 0 {
		o.MaxInst = DefaultMaxInst
	}
	shadows := o.Systems
	if shadows == nil {
		shadows = DefaultSystems()
	}

	// Native reference run (standalone, for the report header).
	prog, err := t.Build()
	if err != nil {
		return nil, fmt.Errorf("oracle %s: %w", t.Name, err)
	}
	var nout bytes.Buffer
	nm, err := machine.New(prog, &nout)
	if err != nil {
		return nil, fmt.Errorf("oracle %s: %w", t.Name, err)
	}
	if err := nm.Run(o.MaxInst); err != nil {
		return nil, fmt.Errorf("oracle %s: native: %w", t.Name, err)
	}
	rep := &Report{
		Name:                 t.Name,
		NativeInstructions:   nm.Stats.Instructions,
		NativeFPInstructions: nm.Stats.FPInstructions,
		NativeCycles:         nm.Cycles,
		NativeOutput:         nout.String(),
	}

	rep.Vanilla, err = runSystem(t, arith.Vanilla{}, o)
	if err != nil {
		return nil, err
	}
	for _, sys := range shadows {
		sr, err := runSystem(t, sys, o)
		if err != nil {
			return nil, err
		}
		rep.Shadows = append(rep.Shadows, sr)
	}
	return rep, nil
}

// runSystem executes the target natively and under FPVM with sys, in
// lockstep, and compares per instruction and at the end.
func runSystem(t Target, sys arith.System, o Options) (*SystemReport, error) {
	bail := func(err error) (*SystemReport, error) {
		return nil, fmt.Errorf("oracle %s [%s]: %w", t.Name, sys.Name(), err)
	}

	nprog, err := t.Build()
	if err != nil {
		return bail(err)
	}
	vprog, err := t.Build()
	if err != nil {
		return bail(err)
	}
	var nout, vout bytes.Buffer
	nm, err := machine.New(nprog, &nout)
	if err != nil {
		return bail(err)
	}
	vmach, err := machine.New(vprog, &vout)
	if err != nil {
		return bail(err)
	}
	if !o.NoPatch {
		patched, err := patch.Apply(vprog, nil)
		if err != nil {
			return bail(fmt.Errorf("static analysis: %w", err))
		}
		patched.Install(vmach)
	}
	cfg := o.VM
	cfg.System = sys
	var inj *faultinject.Injector
	if o.Inject != nil {
		inj = faultinject.New(*o.Inject)
	}
	cfg.Inject = inj
	vm := fpvm.Attach(vmach, cfg)

	sr := &SystemReport{
		System:            sys.Name(),
		FirstDivergencePC: -1,
		OpErrors:          map[arith.Op]*OpError{},
		SiteErrors:        map[uint64]*SiteError{},
		TrapsByFlag:       map[string]uint64{},
		CondCover:         map[fpu.Flags]uint64{},
	}
	_, vanilla := sys.(arith.Vanilla)

	// Lockstep, resynchronized on retirement counts. The virtualized side
	// steps once — which under sequence emulation may retire a whole
	// coalesced run inside one trap delivery — and the native side then
	// catches up until both machines have retired the same number of
	// instructions. At that boundary the RIPs must agree again (a RIP-sync
	// point) and the comparison is demote-aware on the virtualized side — a
	// NaN-boxed value compares as the IEEE double its shadow demotes to — so
	// the check sees through FPVM's value representation without perturbing
	// it. With MaxSequenceLen == 0 every step retires exactly one
	// instruction on each side and this degenerates to the classic
	// per-instruction lockstep.
	steps := uint64(0)
	for !nm.Halted() && !vmach.Halted() {
		if err := vmach.Step(); err != nil {
			return bail(fmt.Errorf("virtualized: %w", err))
		}
		var pc uint64
		var in isa.Inst
		stepped := false
		for nm.Stats.Instructions < vmach.Stats.Instructions && !nm.Halted() {
			pc = nm.RIP
			var ok bool
			in, ok = nm.InstAt(pc)
			if !ok {
				return bail(fmt.Errorf("native RIP %#x off instruction boundary", pc))
			}
			if err := nm.Step(); err != nil {
				return bail(fmt.Errorf("native: %w", err))
			}
			stepped = true
		}
		steps = vmach.Stats.Instructions
		if steps > o.MaxInst {
			return bail(fmt.Errorf("lockstep budget (%d) exceeded", o.MaxInst))
		}
		sr.LockstepInsts = steps
		if !stepped {
			continue // defensive: nothing retired natively this boundary
		}

		if nm.RIP != vmach.RIP {
			sr.ControlDiverged = true
			sr.noteDivergence(pc, in, 0)
			break
		}
		if !compareStep(sr, nm, vm, in, pc, vanilla, divergenceTol) && vanilla {
			// A bit-level divergence under Vanilla: stop immediately — every
			// later comparison would re-report the same root cause.
			break
		}
	}

	// Drain whichever side has not halted (after a control divergence, or a
	// Vanilla value divergence) so final statistics describe complete runs.
	if err := drain(nm, o.MaxInst); err != nil {
		return bail(fmt.Errorf("native drain: %w", err))
	}
	if err := drain(vmach, o.MaxInst); err != nil {
		return bail(fmt.Errorf("virtualized drain: %w", err))
	}

	// Demote every remaining NaN-box, converting the virtualized machine
	// back to pure IEEE state, then compare byte-for-byte. Injection stops
	// first: run teardown is the process-exit analog, and an injected fault
	// in the closing GC would fake a leak.
	vm.DetachInjector()
	vm.RunGC()
	vm.DemoteAll()
	sr.RegsIdentical = nm.R == vmach.R && nm.F == vmach.F
	sr.FlagsIdentical = nm.Flags == vmach.Flags
	sr.MemIdentical = bytes.Equal(nm.Mem, vmach.Mem)
	sr.OutputIdentical = nout.String() == vout.String()

	// Trap and exception coverage.
	sr.FPTraps = vmach.Stats.FPTraps
	sr.CorrectTraps = vmach.Stats.CorrectTraps
	sr.ExtTraps = vmach.Stats.ExtCallTraps
	sr.Emulated = vm.Stats.Emulated
	sr.Coalesced = vm.Stats.Coalesced
	sr.Instructions = vmach.Stats.Instructions
	sr.Cycles = vmach.Cycles
	for i, n := range vmach.Stats.TrapByFlag {
		if n == 0 {
			continue
		}
		set := fpu.Flags(i)
		sr.TrapsByFlag[set.String()] = n
		for _, c := range CondClasses {
			if set&c != 0 {
				sr.CondCover[c] += n
			}
		}
	}

	// Resilience accounting and the NaN-box leak gate. DemoteAll rewrote
	// every boxed pattern as plain IEEE bits, so one more sweep must free
	// every shadow cell, and no boxed pattern may survive anywhere. (This
	// runs after the cycle counters were captured, so the closing sweep is
	// invisible to the report's cost numbers.)
	sr.Degradations = vm.Stats.Degradations
	sr.SBCompiled = vmach.Stats.SBCompiled
	sr.SBHits = vmach.Stats.SBHits
	sr.SBInvalidations = vmach.Stats.SBInvalidations
	sr.JITDegradations = vm.Stats.DegradeByCause[telemetry.DegradeJIT]
	if san := vm.Sanitizer(); san != nil {
		rep := san.Snapshot()
		sr.SanitizeReport = &rep
		sr.SanitizeDegradations = vm.Stats.DegradeByCause[telemetry.DegradeSanitize]
	}
	if inj != nil {
		sr.InjectSummary = inj.Summary()
	}
	vm.RunGC()
	sr.ArenaLive = vm.Arena.Live()
	sr.LeakedBoxes = countBoxed(vmach)
	return sr, nil
}

// countBoxed scans the whole machine state for surviving NaN-box patterns.
func countBoxed(m *machine.Machine) int {
	n := 0
	for i := range m.F {
		for l := 0; l < 2; l++ {
			if nanbox.IsBoxed(m.F[i][l]) {
				n++
			}
		}
	}
	for i := range m.R {
		if nanbox.IsBoxed(uint64(m.R[i])) {
			n++
		}
	}
	for off := 0; off+8 <= len(m.Mem); off += 8 {
		if nanbox.IsBoxed(binary.LittleEndian.Uint64(m.Mem[off:])) {
			n++
		}
	}
	return n
}

// compareStep compares the architectural effect of the instruction both
// machines just retired. It reports false when a Vanilla-fatal (bit-level)
// divergence was found.
func compareStep(sr *SystemReport, nm *machine.Machine, vm *fpvm.VM,
	in isa.Inst, pc uint64, vanilla bool, tol float64) bool {
	vmach := vm.M
	identical := true

	// Integer register file: raw bits first, demoted view on mismatch (a
	// NaN-box that reached an integer register compares as its shadow).
	for i := range nm.R {
		nb, vb := uint64(nm.R[i]), uint64(vmach.R[i])
		if nb != vb && demotedBits(vm, vb) != nb {
			identical = false
		}
	}
	// FP register file, both lanes.
	for i := range nm.F {
		for l := 0; l < 2; l++ {
			nb, vb := nm.F[i][l], vmach.F[i][l]
			if nb != vb && demotedBits(vm, vb) != nb {
				identical = false
			}
		}
	}

	// Per-op error accounting for FP-arithmetic destinations (register or
	// memory), lane by lane — the NSan-style shadow comparison.
	if aop, ok := fpvm.ArithOp(in.Op); ok && len(in.Ops) > 0 {
		lanes := 1
		if in.Op.IsPacked() {
			lanes = 2
		}
		dst := in.Ops[0]
		for l := 0; l < lanes; l++ {
			nb, err1 := nm.ReadOperandFP(dst, l)
			vb, err2 := vmach.ReadOperandFP(dst, l)
			if err1 != nil || err2 != nil {
				continue
			}
			vb = demotedBits(vm, vb)
			rel := sanitize.RelError(nb, vb)
			e := sr.OpErrors[aop]
			if e == nil {
				e = &OpError{}
				sr.OpErrors[aop] = e
			}
			se := sr.SiteErrors[pc]
			if se == nil {
				se = &SiteError{PC: pc, Op: in.Op.String()}
				sr.SiteErrors[pc] = se
			}
			e.Note(rel, nb != vb)
			se.Note(rel, nb != vb)
			if nb != vb {
				identical = false
			}
			if sr.FirstDivergencePC < 0 {
				if vanilla && nb != vb {
					sr.noteDivergence(pc, in, rel)
				} else if !vanilla && rel > tol {
					sr.noteDivergence(pc, in, rel)
				}
			}
		}
	}

	if vanilla && !identical && sr.FirstDivergencePC < 0 {
		// A divergence outside an FP-arith destination (move, conversion,
		// integer contamination): still attribute it to this PC.
		sr.noteDivergence(pc, in, 0)
	}
	return !(vanilla && !identical)
}

func (sr *SystemReport) noteDivergence(pc uint64, in isa.Inst, rel float64) {
	sr.FirstDivergencePC = int64(pc)
	sr.FirstDivergenceOp = in.Op.String()
	_ = rel
}

// drain runs a machine to completion under the remaining budget.
func drain(m *machine.Machine, maxInst uint64) error {
	if m.Halted() {
		return nil
	}
	return m.Run(maxInst)
}

// demotedBits maps a NaN-boxed bit pattern to the IEEE double bits its
// shadow value demotes to; unboxed patterns pass through. It never mutates
// the VM: this is a read-only view of what DemoteAll would write.
func demotedBits(vm *fpvm.VM, bits uint64) uint64 {
	key, ok := nanbox.Unbox(bits)
	if !ok {
		return bits
	}
	v, ok := vm.Arena.Get(key)
	if !ok {
		return fpu.QNaN() // universal NaN demotes to the default qNaN
	}
	return math.Float64bits(vm.Sys.ToFloat64(v))
}
