// Package fpvm implements the paper's primary contribution: the hybrid
// floating point virtual machine of §4. It attaches to a machine the way
// the real prototype attaches to a process via LD_PRELOAD — installing
// itself as the FP exception (SIGFPE) handler, unmasking every MXCSR
// exception, hijacking output, and handling the correctness traps installed
// by the static patcher. The runtime is organized exactly as §4.1 describes:
// trapping, decoding (with a decode cache), binding, emulating, and garbage
// collecting.
package fpvm

import (
	"encoding/binary"
	"math"

	"fpvm/internal/arith"
	"fpvm/internal/faultinject"
	"fpvm/internal/fpu"
	"fpvm/internal/isa"
	"fpvm/internal/machine"
	"fpvm/internal/nanbox"
	"fpvm/internal/sanitize"
	"fpvm/internal/telemetry"
)

// Costs models the cycle cost of FPVM's own runtime components, the upper
// bars of the Figure 9 stacks. The delivery (hardware + kernel) costs live
// in the machine's trap profile.
type Costs struct {
	DecodeMiss  uint64 // full decode via the disassembler
	DecodeHit   uint64 // decode-cache lookup
	Bind        uint64 // operand binding / address resolution
	EmulateBase uint64 // emulator dispatch overhead per instruction
	BoxAlloc    uint64 // shadow cell allocation + NaN-box encode
	GCPerWord   uint64 // conservative scan, cycles per 16 words
	GCPerCell   uint64 // sweep cost per arena cell
	Demote      uint64 // demotion of one located NaN-box
	CorrectBase uint64 // correctness-handler entry overhead
	SBDispatch  uint64 // superblock thunk dispatch (replaces decode+bind+emulate base on re-entry)
}

// DefaultCosts returns component costs calibrated to the §5.3 discussion
// (decode amortizes to near zero via the cache; emulation ~hundreds of
// cycles plus the arithmetic system's own cost).
func DefaultCosts() Costs {
	return Costs{
		DecodeMiss:  950,
		DecodeHit:   22,
		Bind:        70,
		EmulateBase: 260,
		BoxAlloc:    45,
		GCPerWord:   1,
		GCPerCell:   9,
		Demote:      120,
		CorrectBase: 90,
		SBDispatch:  30,
	}
}

// Config selects FPVM's arithmetic system and tuning knobs.
type Config struct {
	// System is the alternative arithmetic system (required).
	System arith.System
	// GCEveryNAllocs triggers a mark-and-sweep pass each time this many
	// shadow cells have been allocated since the last pass. The paper uses
	// a 1-second wall-clock epoch; an allocation budget is the
	// deterministic analog. 0 means the default (200k).
	GCEveryNAllocs uint64
	// MaxSequenceLen bounds sequence emulation, the software amortization of
	// trap delivery: after handling the faulting instruction the handler
	// keeps walking the dense instruction stream and emulating while the
	// next instruction is plain FP arithmetic or an FP move with no
	// correctness site and no cached trace of its own, up to this many extra
	// instructions per delivery. Each coalesced instruction pays decode,
	// bind, and emulate cost but zero delivery cost. 0 disables coalescing
	// and preserves the one-trap-one-instruction behavior bit for bit.
	MaxSequenceLen int
	// ArenaSoftCap triggers a GC pass when the number of live shadow cells
	// reaches it (in addition to the allocation-epoch trigger). 0 disables.
	ArenaSoftCap int
	// ArenaHardCap is the absolute live-cell ceiling: an allocation that
	// would exceed it degrades the faulting instruction to native execution
	// instead of growing the arena (and never aborts the run). 0 disables.
	ArenaHardCap int
	// JITThreshold arms the trace-JIT superblock tier: when a site's
	// uncached-trace count crosses this value, its coalesced straight-line
	// run is compiled into a cached superblock — a pre-decoded, pre-bound
	// trace of thunks entered through the VM's patch handler — so subsequent
	// visits re-enter at patch-check cost with zero delivery, zero decode,
	// and zero bind. A superblock never goes stale within a run (see
	// superblock.go), Reattach re-arms the cache empty, and any compile
	// failure degrades the site back to its uncached path. 0 disables the
	// tier and preserves behavior bit for bit.
	JITThreshold int
	// SBCache opts into sharing compiled superblocks through the loaded
	// machine.Image: compiled traces are published on the image and Reattach
	// eagerly adopts every trace published there that has no correctness
	// site of this session inside it (install the sites before attaching),
	// so in a session pool only the first tenant per image pays compilation.
	// One tenant's patches or degradations never touch another tenant's
	// traces or the published ones. Warm attachment changes modeled cycles
	// (the warm-up traces and compile costs disappear): an adopted trace,
	// like every trace, runs only on a visit where its entry traps. Under
	// Vanilla it never changes guest-visible output; under other systems
	// the configuration lattice (internal/lattice) checks that on the
	// curated programs. nil disables sharing and preserves behavior bit for
	// bit.
	SBCache *SBCache
	// Sanitize attaches the numerical sanitizer: the guest runs under the
	// sanitizer's wrapping arithmetic system, which carries a high-precision
	// and an interval shadow beside every primary value, and the VM feeds it
	// per-instruction PC attribution from every step of every trace, cached
	// or not (see trace.go). System is the wrapper's primary (the options'
	// own Primary is ignored), and Certify inside the options arms interval
	// certification. The VM builds the sanitizer and keeps it across
	// Reattach; Sanitizer exposes it for the report snapshot. Because the
	// wrapper delegates every guest-visible decision and OpCycles to its
	// primary, sanitizer-on is bit- and cycle-identical to sanitizer-off.
	// nil disables sanitizing and preserves behavior bit for bit.
	Sanitize *sanitize.Options
	// Inject attaches a fault injector to the runtime's seams (testing /
	// chaos suite). nil disables injection and preserves behavior bit for
	// bit.
	Inject *faultinject.Injector
}

// CycleBreakdown accumulates cycles per runtime component (Figure 9).
type CycleBreakdown struct {
	Decode      uint64
	Bind        uint64
	Emulate     uint64
	GC          uint64
	Correctness uint64
}

// Stats aggregates FPVM runtime counters.
type Stats struct {
	Traps        uint64 // FP traps handled by an uncached trace (delivered, or caught at a patch site)
	Emulated     uint64 // scalar emulations performed (lanes)
	DecodeHits   uint64
	DecodeMisses uint64
	Promotions   uint64 // float64 → shadow conversions
	Unboxings    uint64 // boxed operand lookups
	Demotions    uint64 // shadow → float64 in-place demotions
	CorrectTraps uint64 // correctness traps handled
	ExtDemotions uint64 // demotions at external call sites
	OutputHooks  uint64 // hijacked output conversions
	UniversalNaN uint64 // sNaNs with no shadow cell (treated as true NaN)

	// Sequence-emulation counters (Config.MaxSequenceLen > 0).
	Sequences  uint64                // deliveries that coalesced at least one extra instruction
	Coalesced  uint64                // instructions emulated with zero delivery cost
	SeqLenHist [SeqLenBuckets]uint64 // histogram of per-delivery run lengths (faulting inst included)

	// Resilience counters (graceful degradation).
	Degradations   uint64 // emulation-path failures absorbed by native re-execution
	DegradeByCause [telemetry.NumDegradeCauses]uint64

	GC     GCStats
	Cycles CycleBreakdown
}

// VM is an attached floating point virtual machine.
type VM struct {
	M     *machine.Machine
	Sys   arith.System
	Arena *Arena
	Stats Stats

	costs   Costs
	cfg     Config
	cells   arith.Store // shadow values: the scratch cells, then one cell per arena key
	dcache  []*step     // decode cache, one slot per instruction index
	dfree   []*step     // recycled decode-cache entries (session reuse)
	pending [2]uint64   // boxed lane results not yet written back (see applyLanes)
	gcEvery uint64
	lastGC  uint64 // arena alloc count at last GC
	// opCycles is Sys.OpCycles per op, read once per attach (OpCycles is a
	// pure function of the system and the op).
	opCycles [arith.NumOps]uint64
	telemPC  uint64 // PC that promote/demote/unbox events attribute to
	// (maintained by the trap handlers only while a telemetry collector is
	// attached to the machine; see M.Telem)

	inject   *faultinject.Injector // nil = no injection (the common case)
	injectPC uint64                // PC injected faults attribute to (maintained only when inject != nil)

	san     *sanitize.Sanitizer // nil = no sanitizer (the common case)
	sanKeep *sanitize.Sanitizer // the sanitizer last built, reused by Reattach

	// Hook closures, created once on first attach. Method values allocate at
	// the point they are taken, so Reattach reinstalls these cached funcs
	// instead of re-taking vm.enterTrace etc. — keeping session reuse free
	// of steady-state allocations. patchFn is the one handler of every patch
	// slot the VM installs (trap-and-patch sites and cached-trace entries).
	fpTrapFn   machine.TrapHandler
	corrTrapFn machine.TrapHandler
	extTrapFn  machine.TrapHandler
	outFn      func(uint64) (string, bool)
	patchFn    machine.PatchHandler

	// Trace-JIT tier state (allocated only when Config.JITThreshold is set):
	// the per-entry-index superblock cache, the per-site uncached-trace
	// counters toward the compile threshold, and the compile-failure
	// blacklist.
	sblocks   []*trace
	jitCounts []uint32
	sbFailed  []bool
}

// Attach installs FPVM underneath the program loaded in m: it unmasks all
// MXCSR exceptions, installs the FP trap, correctness-trap, external-call,
// and output hooks, and returns the VM. This is the moral equivalent of
// LD_PRELOADing the FPVM shared library before starting the binary.
func Attach(m *machine.Machine, cfg Config) *VM {
	vm := &VM{Arena: NewArena(), costs: DefaultCosts()}
	vm.Reattach(m, cfg)
	return vm
}

// Reattach rebinds an existing VM to m — typically the same pooled machine,
// freshly Reset with a (possibly different) program — under a new Config,
// reusing every allocation the VM has accumulated: the shadow arena's slot
// table, the decode cache (entries are recycled through a freelist and
// re-translated on the next miss, so decode hit/miss accounting is identical
// to a fresh Attach), the trace-JIT tables, and the shadow cells. A
// reattached VM is bit-identical in behavior, stats, and modeled cycles to
// one returned by Attach on a fresh machine.
func (vm *VM) Reattach(m *machine.Machine, cfg Config) {
	if cfg.System == nil {
		panic("fpvm: Config.System is required")
	}
	vm.san = nil
	if cfg.Sanitize != nil {
		o := *cfg.Sanitize
		o.Primary = cfg.System
		if vm.sanKeep == nil {
			vm.sanKeep = sanitize.New(o)
		} else {
			vm.sanKeep.Reset(o)
		}
		vm.san = vm.sanKeep
		// Callers install m.Telem before attaching; mirror sanitizer
		// observations into the same site table -topsites ranks.
		vm.san.BindTelemetry(m.Telem)
	}
	gcEvery := cfg.GCEveryNAllocs
	if gcEvery == 0 {
		gcEvery = 200_000
	}
	vm.M = m
	vm.Sys = cfg.System
	if vm.san != nil {
		vm.Sys = vm.san.System()
	}
	vm.Stats = Stats{}
	vm.cfg = cfg
	vm.gcEvery = gcEvery
	vm.lastGC = 0
	vm.telemPC = 0
	vm.inject = cfg.Inject
	vm.injectPC = 0
	vm.Arena.Reset()
	vm.cells = arith.StoreFor(vm.Sys, vm.cells)
	for op := range vm.opCycles {
		vm.opCycles[op] = vm.Sys.OpCycles(arith.Op(op))
	}

	// Recycle the previous session's decode-cache entries, then resize the
	// dense cache to the (possibly new) instruction stream. Every slot starts
	// nil: the first trap at a site is a decode miss exactly as on a fresh
	// VM, it just fills a recycled struct instead of allocating one.
	for i, st := range vm.dcache {
		if st != nil {
			vm.dfree = append(vm.dfree, st)
			vm.dcache[i] = nil
		}
	}
	n := len(m.Insts())
	if cap(vm.dcache) >= n {
		vm.dcache = vm.dcache[:n]
	} else {
		vm.dcache = make([]*step, n)
	}

	// Trace-JIT cache: re-armed empty for every (re)attach. The machine's
	// Reset/Load already discarded any superblock entry patches with the rest
	// of the side table, so a pooled session can never re-enter a previous
	// tenant's trace — the cache starts cold exactly as on a fresh Attach.
	if cfg.JITThreshold > 0 {
		if cap(vm.sblocks) >= n {
			vm.sblocks = vm.sblocks[:n]
			clear(vm.sblocks)
			vm.jitCounts = vm.jitCounts[:n]
			clear(vm.jitCounts)
			vm.sbFailed = vm.sbFailed[:n]
			clear(vm.sbFailed)
		} else {
			vm.sblocks = make([]*trace, n)
			vm.jitCounts = make([]uint32, n)
			vm.sbFailed = make([]bool, n)
		}
	} else {
		vm.sblocks = nil
		vm.jitCounts = nil
		vm.sbFailed = nil
	}

	m.MXCSR.SetMasks(0) // unmask everything: rounding, NaN, overflow, ...
	if vm.fpTrapFn == nil {
		vm.fpTrapFn = vm.enterTrace
		vm.corrTrapFn = vm.handleCorrectnessTrap
		vm.extTrapFn = vm.handleExternalCall
		vm.outFn = vm.outputFilter
		vm.patchFn = vm.patchHandler
	}
	m.FPTrap = vm.fpTrapFn
	m.CorrectnessTrap = vm.corrTrapFn
	m.ExternalTrap = vm.extTrapFn
	m.OutFilter = vm.outFn

	// Shared warm cache: adopt every trace another session already published
	// on this image, so this attach starts hot instead of recompiling. It
	// checks each trace against the correctness sites the caller installed
	// before attaching.
	if cfg.JITThreshold > 0 && cfg.SBCache != nil {
		vm.adoptShared(m)
	}
}

// outputFilter implements the §2 "printing problem" hijack: boxed values
// print their shadow, others print normally.
func (vm *VM) outputFilter(bits uint64) (string, bool) {
	key, ok := nanbox.Unbox(bits)
	if !ok {
		return "", false
	}
	if !vm.Arena.InUse(key) {
		return "nan", true // universal NaN
	}
	vm.Stats.OutputHooks++
	return vm.cells.Format(arith.KeyCell(key)), true
}

// resultCell is the scratch cell an operation computes into before
// boxResult moves the value into its arena cell; scratch cells below it
// hold promoted operands, one per operand position.
const resultCell arith.Cell = arith.NumScratch - 1

// value materializes an operand lane as a shadow cell: a boxed operand names
// its arena cell, and a plain double is promoted into scratch cell slot.
func (vm *VM) value(bits uint64, slot int) arith.Cell {
	if key, ok := nanbox.Unbox(bits); ok {
		if vm.Arena.InUse(key) {
			vm.Stats.Unboxings++
			if t := vm.M.Telem; t != nil {
				t.Unboxing(vm.telemPC, vm.M.Cycles)
			}
			return arith.KeyCell(key)
		}
		// A signaling NaN with no shadow: a universal NaN (§2).
		vm.Stats.UniversalNaN++
		vm.cells.SetFloat64(arith.Cell(slot), math.NaN())
		return arith.Cell(slot)
	}
	vm.Stats.Promotions++
	if t := vm.M.Telem; t != nil {
		t.Promotion(vm.telemPC, vm.M.Cycles)
	}
	vm.cells.SetFloat64(arith.Cell(slot), math.Float64frombits(bits))
	return arith.Cell(slot)
}

// boxResult allocates an arena key for the value in cell src, moves the
// value into the key's cell and returns the NaN-boxed bits. Arena pressure
// is absorbed rather than fatal: at the soft cap a GC pass reclaims dead
// cells; at the hard cap the allocation fails with a degradable fault so the
// caller's instruction re-executes natively instead of aborting.
func (vm *VM) boxResult(src arith.Cell) (uint64, error) {
	vm.M.Cycles += vm.costs.BoxAlloc
	if j := vm.inject; j != nil && j.Fire(faultinject.SeamArenaAlloc, vm.injectPC) {
		return 0, degradeFault(telemetry.DegradeArena, errInjected)
	}
	if cap := vm.cfg.ArenaSoftCap; cap > 0 && vm.Arena.Live() >= cap {
		// Re-collect only after some allocation volume since the last pass:
		// if the live set itself sits at the cap, back-to-back passes would
		// free nothing and thrash.
		if vm.Arena.Allocs()-vm.lastGC > uint64(cap/4)+1 {
			vm.RunGC()
		}
	}
	if cap := vm.cfg.ArenaHardCap; cap > 0 && vm.Arena.Live() >= cap {
		return 0, degradeFault(telemetry.DegradeArena, errArenaFull)
	}
	key := vm.Arena.Alloc()
	vm.cells.Move(arith.KeyCell(key), src)
	bits := nanbox.Box(key)
	if j := vm.inject; j != nil {
		bits, _ = j.CorruptBox(bits)
	}
	return bits, nil
}

// Demoted returns the IEEE double bits a NaN-boxed pattern demotes to;
// plain patterns pass through. It is read-only — no counter, cycle or
// telemetry event moves — so it is the view of what DemoteAll would write,
// and the only way to read a shadow cell from outside the VM.
func (vm *VM) Demoted(bits uint64) uint64 {
	out, _, _ := vm.demote(bits)
	return out
}

// demote is Demoted plus whether the box named a live shadow cell.
func (vm *VM) demote(bits uint64) (out uint64, boxed, shadow bool) {
	key, ok := nanbox.Unbox(bits)
	if !ok {
		return bits, false, false
	}
	if !vm.Arena.InUse(key) {
		// A universal NaN demotes to the x64 indefinite QNaN — the exact
		// pattern masked hardware produces — not Go's math.NaN() bits, whose
		// payload differs and would diverge from a native run bit-for-bit.
		return fpu.QNaN(), true, false
	}
	return math.Float64bits(vm.cells.Float64(arith.KeyCell(key))), true, true
}

// demoteBits converts a boxed pattern back to its IEEE double bits, charging
// the demotion of a live shadow; plain values pass through unchanged.
func (vm *VM) demoteBits(bits uint64) (uint64, bool) {
	out, boxed, shadow := vm.demote(bits)
	if shadow {
		vm.Stats.Demotions++
		vm.M.Cycles += vm.costs.Demote
		if t := vm.M.Telem; t != nil {
			t.Demotion(vm.telemPC, vm.M.Cycles)
		}
	}
	return out, boxed
}

// handleCorrectnessTrap services a site installed by the static patcher:
// every operand location of the instruction about to execute is scanned for
// NaN-boxes, which are demoted in place; the machine then re-executes the
// original instruction natively (§4.2).
func (vm *VM) handleCorrectnessTrap(f *machine.TrapFrame) error {
	vm.Stats.CorrectTraps++
	vm.Stats.Cycles.Correctness += vm.costs.CorrectBase
	vm.M.Cycles += vm.costs.CorrectBase
	if t := vm.M.Telem; t != nil {
		vm.telemPC = f.Inst.Addr
		t.Correctness(f.Idx, f.Inst.Addr, f.Inst.Op, f.Site, vm.M.Cycles)
	}
	for i := range f.Inst.Ops {
		if err := vm.demoteOperand(f.M, &f.Inst.Ops[i], f.Inst.Op.IsPacked()); err != nil {
			return err
		}
	}
	return nil
}

// demoteOperand demotes NaN-boxes reachable through one operand.
func (vm *VM) demoteOperand(m *machine.Machine, o *isa.Operand, packed bool) error {
	lanes := 1
	if packed {
		lanes = 2
	}
	switch o.Kind {
	case isa.KindFPReg:
		for l := 0; l < lanes; l++ {
			if nb, ok := vm.demoteBits(m.F[o.Reg][l]); ok {
				m.F[o.Reg][l] = nb
			}
		}
	case isa.KindIntReg:
		if nb, ok := vm.demoteBits(uint64(m.R[o.Reg])); ok {
			m.R[o.Reg] = int64(nb)
		}
	case isa.KindMem:
		// The binder resolves addresses with the same isa.EffAddr helper
		// the machine's executor uses, so the two cannot diverge.
		addr := isa.EffAddr(&m.R, o)
		for l := 0; l < lanes; l++ {
			bits, err := m.ReadU64(addr + uint64(8*l))
			if err != nil {
				continue // partial/unmapped lane: scan the remaining lanes
			}
			if nb, ok := vm.demoteBits(bits); ok {
				if err := m.WriteU64(addr+uint64(8*l), nb); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// handleExternalCall demotes all FP argument registers before an
// un-analyzed external library is entered (§4.2: "we demote NaN-boxed
// floating point registers at the call site").
func (vm *VM) handleExternalCall(f *machine.TrapFrame) error {
	if f.M.Telem != nil {
		vm.telemPC = f.Inst.Addr
	}
	for r := 0; r < isa.NumFPRegs; r++ {
		for l := 0; l < 2; l++ {
			if nb, ok := vm.demoteBits(f.M.F[r][l]); ok {
				f.M.F[r][l] = nb
				vm.Stats.ExtDemotions++
			}
		}
	}
	return nil
}

// Sanitizer returns the sanitizer armed by Config.Sanitize for the current
// attachment, or nil when sanitizing is off. Its Snapshot is the run's
// report; the sanitizer itself is reset by the next Reattach.
func (vm *VM) Sanitizer() *sanitize.Sanitizer { return vm.san }

// DetachInjector removes the fault injector, restoring fault-free operation
// for run teardown (the process-exit analog): final demote/GC passes must
// not themselves be injectable, or a teardown fault would fake a leak.
func (vm *VM) DetachInjector() { vm.inject = nil }

// DemoteAll demotes every NaN-box in registers and memory, converting the
// program state back to pure IEEE doubles (used at program exit and by
// tests to compare final states).
func (vm *VM) DemoteAll() {
	m := vm.M
	if m.Telem != nil {
		vm.telemPC = m.RIP
	}
	for r := range m.F {
		for l := 0; l < 2; l++ {
			if nb, ok := vm.demoteBits(m.F[r][l]); ok {
				m.F[r][l] = nb
			}
		}
	}
	for r := range m.R {
		if nb, ok := vm.demoteBits(uint64(m.R[r])); ok {
			m.R[r] = int64(nb)
		}
	}
	for addr := 0; addr+8 <= len(m.Mem); addr += 8 {
		bits := binary.LittleEndian.Uint64(m.Mem[addr:])
		if nb, ok := vm.demoteBits(bits); ok {
			binary.LittleEndian.PutUint64(m.Mem[addr:], nb)
		}
	}
}
