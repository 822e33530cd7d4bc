// Package machine implements the CPU + memory simulator that stands in for
// the paper's x64 hardware and Linux kernel (see DESIGN.md §2). It executes
// isa.Program images with a software FPU (package fpu) that honors %mxcsr
// exception masks and delivers precise faults — without retiring the
// faulting instruction — through configurable trap-delivery cost models
// (package trap). FPVM installs itself as the machine's FP trap handler
// exactly as the real prototype installs a SIGFPE handler.
package machine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync/atomic"

	"fpvm/internal/fpu"
	"fpvm/internal/isa"
	"fpvm/internal/telemetry"
	"fpvm/internal/trap"
)

// Default memory geometry. The data segment loads at DataBase; the stack
// grows down from the top of memory.
const (
	DefaultMemSize  = 4 << 20 // 4 MiB
	DefaultDataBase = 0x1000
)

// CPUFlags models the RFLAGS bits the ISA's conditional jumps consume.
type CPUFlags struct {
	ZF, SF, OF, CF, PF bool
}

// TrapCause says why the FP trap handler was invoked.
type TrapCause uint8

const (
	CauseFPException  TrapCause = iota // unmasked MXCSR event
	CauseCorrectness                   // explicit trapc from the static patcher
	CauseExternalCall                  // callext site (patched demotion point)
)

func (c TrapCause) String() string {
	switch c {
	case CauseFPException:
		return "fp-exception"
	case CauseCorrectness:
		return "correctness"
	case CauseExternalCall:
		return "external-call"
	default:
		return "cause?"
	}
}

// TrapFrame is the signal-frame analog handed to trap handlers. Handlers may
// mutate machine state freely (like writing through a ucontext) and must
// advance RIP past the faulting instruction if they emulated it.
//
// The frame belongs to the machine and is valid only for the duration of the
// handler call: the machine fills the same storage for its next delivery, so
// a handler that needs anything from the frame afterwards must copy it (copy
// *f, not f).
//
// A handler may retire more than one instruction per delivery: after
// emulating the faulting instruction it can keep walking the dense stream
// and emulate the following instructions too (sequence emulation, the
// software amortization of the Figure 9 delivery cost). It reports the
// number of *additional* instructions it retired in Coalesced; the machine
// credits them to Stats.Instructions so retirement accounting stays exact.
type TrapFrame struct {
	M     *Machine
	Cause TrapCause
	Inst  *isa.Inst // the faulting/trapping instruction, in the image's immutable stream
	Idx   int       // dense instruction index of Inst (see Machine.InstIndex)
	Flags fpu.Flags // MXCSR condition flags observed (FP exceptions)
	Site  int64     // correctness-trap site id (trapc immediate)

	// Coalesced is set by the FP trap handler: the number of instructions
	// beyond Inst that it decoded, emulated, and advanced RIP past inside
	// this one delivery. Zero means the classic one-trap-one-instruction
	// contract.
	Coalesced int
}

// TrapHandler processes a delivered trap. A nil return resumes execution at
// the machine's (possibly updated) RIP. The frame is machine-owned and valid
// only until the handler returns; a handler must not retain the pointer.
type TrapHandler func(*TrapFrame) error

// PatchHandler implements trap-and-patch (§3.2): it replaces the instruction
// at a patched site. Returning handled=false makes the machine execute the
// original instruction natively (precondition checks passed). As with
// TrapHandler, the frame is machine-owned and valid only until the handler
// returns.
type PatchHandler func(*TrapFrame) (handled bool, err error)

// maxFrameDepth is the number of machine-owned trap frames: one, for the
// patch dispatch or trap delivery in progress. No handler FPVM installs
// nests a delivery; a nested one, which only a handler that itself calls
// Step can produce, falls back to a heap frame.
const maxFrameDepth = 1

// Stats aggregates execution counters for the evaluation harness.
type Stats struct {
	Instructions   uint64                  // retired instructions (incl. emulated)
	FPInstructions uint64                  // retired FP-arithmetic instructions
	FPTraps        uint64                  // delivered FP exception traps
	CoalescedFP    uint64                  // instructions retired inside a trap delivery beyond the faulting one
	CorrectTraps   uint64                  // delivered correctness traps
	ExtCallTraps   uint64                  // delivered external-call traps
	PatchInvokes   uint64                  // trap-and-patch handler invocations
	SBCompiled     uint64                  // superblocks compiled by the trace-JIT tier
	SBHits         uint64                  // superblock entries executed (zero-delivery re-entries)
	TrapByFlag     [fpu.FlagAll + 1]uint64 // FP trap counts indexed by the unmasked fpu.Flags set
	Trap           trap.Stats              // delivery cost accounting
}

// instSlot is the per-instruction side table of the dense pipeline: one
// bounds-checked array access at dispatch replaces the seed's three map
// probes (decoded code, patch sites, correctness sites) per retired
// instruction. patch and the site are per-run state; the charge and class
// are the image's, copied in at Load so dispatch reads a single slot.
type instSlot struct {
	patch PatchHandler // trap-and-patch handler, nil when unpatched
	site  int64        // correctness-trap site id
	instInfo
	hasSite bool // whether a correctness site is installed
}

// Machine is a single-core simulated CPU with flat memory.
type Machine struct {
	// Architectural state.
	R     [isa.NumIntRegs]int64    // integer registers; R15 is SP
	F     [isa.NumFPRegs][2]uint64 // 128-bit FP registers (two f64 lanes)
	RIP   uint64
	Flags CPUFlags
	MXCSR fpu.MXCSR
	Mem   []byte

	// Program image: the shared, immutable Image (a dense predecoded
	// instruction stream — the "silicon" decoder — and an addr→index table
	// for control flow; insts and addrIdx alias its storage), plus this
	// machine's own per-index side table carrying patch and correctness-site
	// slots.
	Prog     *isa.Program
	img      *Image
	insts    []isa.Inst
	addrIdx  []int32 // code address → index into insts; -1 off-boundary
	slots    []instSlot
	curIdx   int    // index of the instruction currently being dispatched
	dataBase uint64 // base of the writable data segment (code space below is read-only text)

	// frames are the machine-owned trap frames, one per delivery nesting
	// level (see TrapFrame); frameDepth counts the levels in use.
	frames     [maxFrameDepth]TrapFrame
	frameDepth int

	// Virtualization hooks.
	FPTrap          TrapHandler // SIGFPE-analog handler (FPVM)
	CorrectnessTrap TrapHandler // trapc handler (FPVM demotion)
	ExternalTrap    TrapHandler // callext interposition
	// TrapOnNaNLoad enables the §6.2 hardware extension: an integer
	// instruction about to read a memory word whose bit pattern is a NaN
	// raises a correctness trap first, making the static analysis
	// unnecessary. Site id -2 marks these hardware-detected traps.
	TrapOnNaNLoad bool
	OutFilter     func(bits uint64) (string, bool) // printf hijack (§2 printing problem)
	// Telem, when non-nil, receives trap entry/exit events and per-PC site
	// attribution for every delivered trap. The nil default keeps the
	// dispatch loop's behavior and cost accounting bit-identical — telemetry
	// is strictly observational and never charges cycles.
	Telem *telemetry.Collector

	// Cost accounting. Native execution charges the image's per-instruction
	// charge (DefaultCostModel); traps charge the delivery profile.
	Profile  *trap.CostProfile
	Delivery trap.Kind // delivery model for every trap (FP, correctness, callext)
	Cycles   uint64
	Stats    Stats

	// Preempt, when non-nil, is the cooperative-preemption flag: Run re-checks
	// it every DefaultPreemptEvery retired instructions (a checkpoint, not a
	// per-step poll) and returns a typed *DeadlineError when it is set. Another
	// goroutine — a deadline timer, a canceled request context — stores true
	// to stop the run at the next checkpoint with all state harvestable at an
	// instruction boundary, exactly like a budget truncation. A nil flag is
	// the default and costs nothing: the dispatch loop is unchanged.
	Preempt *atomic.Bool

	Out    io.Writer
	halted bool
}

// New creates a machine with default geometry, cost model, and the R815
// delivery profile, and loads prog. It predecodes prog into a fresh Image of
// its own; NewFromImage loads one that is already built.
func New(prog *isa.Program, out io.Writer) (*Machine, error) {
	img, err := NewImage(prog, nil)
	if err != nil {
		return nil, err
	}
	return NewFromImage(img, out, 0)
}

// NewFromImage creates a machine like New over an already-built image, which
// it shares rather than copies, with memSize bytes of memory (<= 0 means
// DefaultMemSize). Smaller machines make dense session pools affordable
// (hundreds of concurrent guests); the GC scan cost is proportional to
// writable memory, so cycle counts are only comparable between runs that use
// the same geometry.
func NewFromImage(img *Image, out io.Writer, memSize int) (*Machine, error) {
	if memSize <= 0 {
		memSize = DefaultMemSize
	}
	if memSize > isa.MaxMemSize {
		return nil, fmt.Errorf("machine: memory size %d exceeds the %d-byte maximum", memSize, isa.MaxMemSize)
	}
	m := &Machine{
		Mem:      make([]byte, memSize),
		Profile:  &trap.R815,
		Delivery: trap.DeliverUserSignal,
		Out:      out,
	}
	m.MXCSR = fpu.DefaultMXCSR
	if err := m.Load(img); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset returns the machine to the exact state NewFromImage(img, out,
// memSize) would produce — architectural state, delivery profile, stats,
// and hooks all back to their defaults — while retaining every allocation:
// the memory image and the side-table slots. This is what makes a machine
// cheaply poolable: a reused machine is bit-identical to a fresh one, it
// just does not pay the allocations again. The image itself is adopted by
// pointer, so switching programs costs no predecode either.
// memSize <= 0 means DefaultMemSize, as for NewFromImage.
func (m *Machine) Reset(img *Image, out io.Writer, memSize int) error {
	if img == nil {
		return errors.New("machine: nil image")
	}
	if memSize <= 0 {
		memSize = DefaultMemSize
	}
	if memSize > isa.MaxMemSize {
		return fmt.Errorf("machine: memory size %d exceeds the %d-byte maximum", memSize, isa.MaxMemSize)
	}
	if memSize != len(m.Mem) {
		m.Mem = make([]byte, memSize)
	} else {
		// Zero the whole image: guests may have written anywhere in bounds,
		// and a pooled machine must never leak one session's bytes into the
		// next (clear compiles to memclr).
		clear(m.Mem)
	}
	m.R = [isa.NumIntRegs]int64{}
	m.F = [isa.NumFPRegs][2]uint64{}
	m.Flags = CPUFlags{}
	m.MXCSR = fpu.DefaultMXCSR
	m.Cycles = 0
	m.Stats = Stats{}
	m.frames = [maxFrameDepth]TrapFrame{}
	m.frameDepth = 0

	m.FPTrap, m.CorrectnessTrap, m.ExternalTrap = nil, nil, nil
	m.TrapOnNaNLoad = false
	m.OutFilter = nil
	m.Telem = nil
	m.Preempt = nil

	m.Profile = &trap.R815
	m.Delivery = trap.DeliverUserSignal
	m.Out = out
	return m.Load(img)
}

// Load installs a program image: the machine adopts img's predecoded stream
// and addr→index table, clears its own side-table slots (any previously
// installed patch or correctness site is discarded), copies the data segment
// to its base, and sets SP to the top of memory and RIP to the entry point.
// Correctness sites are not installed; see InstallSites.
func (m *Machine) Load(img *Image) error {
	if img == nil {
		return errors.New("machine: nil image")
	}
	m.img, m.Prog = img, img.prog
	m.insts, m.addrIdx = img.insts, img.addrIdx
	if cap(m.slots) >= len(m.insts) {
		m.slots = m.slots[:len(m.insts)]
	} else {
		m.slots = make([]instSlot, len(m.insts))
	}
	for i, info := range img.info {
		m.slots[i] = instSlot{instInfo: info}
	}
	return m.loadData(img.prog)
}

// Image returns the loaded program image.
func (m *Machine) Image() *Image { return m.img }

// InstallSites installs every correctness site of the loaded image's table
// (see NewImage) and returns how many there are. It is the only way a site
// reaches a machine: the sites a run sees are the image's, fixed before the
// first instruction retires, so a trace compiled over them never goes stale.
func (m *Machine) InstallSites() int {
	for _, s := range m.img.sites {
		m.slots[s.idx].site = s.id
		m.slots[s.idx].hasSite = true
	}
	return len(m.img.sites)
}

// loadData installs the data segment, stack pointer, and entry point — the
// per-run half of Load.
func (m *Machine) loadData(prog *isa.Program) error {
	base := prog.DataBase
	if base == 0 {
		base = DefaultDataBase
	}
	if int(base)+len(prog.Data) > len(m.Mem) {
		return fmt.Errorf("machine: data segment (%d bytes at %#x) exceeds memory", len(prog.Data), base)
	}
	m.dataBase = base
	copy(m.Mem[base:], prog.Data)
	m.RIP = prog.Entry
	m.R[isa.RegSP] = int64(len(m.Mem)) // empty descending stack
	m.halted = false
	return nil
}

// Halted reports whether the program has executed halt.
func (m *Machine) Halted() bool { return m.halted }

// FaultError is returned for machine-level faults (bad memory, bad opcode,
// unhandled FP exception) — the moral equivalent of the process dying.
type FaultError struct {
	RIP    uint64
	Reason string
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("machine fault at %#x: %s", e.RIP, e.Reason)
}

func (m *Machine) fault(format string, args ...any) error {
	return &FaultError{RIP: m.RIP, Reason: fmt.Sprintf(format, args...)}
}

// ReadU64 loads 8 bytes little-endian from addr.
func (m *Machine) ReadU64(addr uint64) (uint64, error) {
	if addr >= uint64(len(m.Mem)) || uint64(len(m.Mem))-addr < 8 {
		return 0, m.boundsFault("load", addr)
	}
	return binary.LittleEndian.Uint64(m.Mem[addr:]), nil
}

// boundsFault is the fault of an out-of-bounds load or store: of ReadU64 and
// WriteU64, and of exec's inline memory forms.
func (m *Machine) boundsFault(access string, addr uint64) error {
	return m.fault("%s out of bounds: %#x", access, addr)
}

// WriteU64 stores 8 bytes little-endian at addr. A store below the data base
// lands in the code-segment shadow and changes no instruction: execution
// fetches only from the immutable predecoded stream.
func (m *Machine) WriteU64(addr, v uint64) error {
	if addr >= uint64(len(m.Mem)) || uint64(len(m.Mem))-addr < 8 {
		return m.boundsFault("store", addr)
	}
	binary.LittleEndian.PutUint64(m.Mem[addr:], v)
	return nil
}

// BudgetError is returned by Run when the caller's instruction budget is
// exhausted before the program halts. Unlike a FaultError it does not mean
// the guest died: machine state is consistent at an instruction boundary and
// fully harvestable, which is what lets a serving layer treat a quota as a
// degradation (truncate the run, report partial results) rather than a kill.
type BudgetError struct {
	RIP    uint64
	Budget uint64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("machine fault at %#x: instruction budget exceeded (%d)", e.RIP, e.Budget)
}

// DefaultPreemptEvery is the deadline checkpoint interval in retired
// instructions: frequent enough that a preempted run stops
// within microseconds of wall clock, rare enough that the atomic load
// vanishes against the per-instruction dispatch cost.
const DefaultPreemptEvery = 10_000

// DeadlineError is returned by Run when the cooperative-preemption flag was
// observed set at a checkpoint. Like BudgetError — and unlike a FaultError —
// it does not mean the guest died: the machine stopped at an instruction
// boundary with registers, memory, stats, and modeled cycles all consistent
// and harvestable, which is what lets a serving layer turn a deadline or a
// canceled request into a truncated result instead of a kill.
type DeadlineError struct {
	RIP          uint64
	Instructions uint64 // retirements when the flag was observed
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("machine fault at %#x: deadline exceeded (%d instructions retired)", e.RIP, e.Instructions)
}

// Run executes until halt, a fault, maxInstructions retirements
// (0 = unlimited), or — when Preempt is armed — a deadline checkpoint that
// observes the flag set. It returns nil on a clean halt, *BudgetError when
// the instruction budget ran out first, and *DeadlineError when preempted.
//
// Preemption is cooperative: the flag is re-checked every
// DefaultPreemptEvery retired instructions, never mid-instruction, so a
// preempted run is always left at an instruction boundary. Checkpoints charge no modeled cycles —
// an armed-but-never-fired flag leaves the run bit- and cycle-identical to
// an unarmed one.
//
// The loop makes one compare per step, against the stop count: the smaller
// of the budget and the next checkpoint.
func (m *Machine) Run(maxInstructions uint64) error {
	budget := maxInstructions
	if budget == 0 {
		budget = math.MaxUint64
	}
	checkpoint := uint64(math.MaxUint64)
	if m.Preempt != nil {
		checkpoint = m.Stats.Instructions + DefaultPreemptEvery
	}
	stop := min(budget, checkpoint)
	for !m.halted {
		if err := m.Step(); err != nil {
			return err
		}
		if m.Stats.Instructions < stop {
			continue
		}
		if m.Stats.Instructions >= budget {
			return &BudgetError{RIP: m.RIP, Budget: maxInstructions}
		}
		if m.Preempt.Load() {
			return &DeadlineError{RIP: m.RIP, Instructions: m.Stats.Instructions}
		}
		checkpoint = m.Stats.Instructions + DefaultPreemptEvery
		stop = min(budget, checkpoint)
	}
	return nil
}

// InstIndex returns the dense-stream index of the instruction starting at
// addr, or false when addr is not an instruction boundary.
func (m *Machine) InstIndex(addr uint64) (int, bool) { return m.img.instIndex(addr) }

// InstAt returns the predecoded instruction at addr.
func (m *Machine) InstAt(addr uint64) (isa.Inst, bool) {
	i, ok := m.InstIndex(addr)
	if !ok {
		return isa.Inst{}, false
	}
	return m.insts[i], true
}

// Insts exposes the dense predecoded instruction stream in code order. The
// returned slice is the machine's own and must not be mutated.
func (m *Machine) Insts() []isa.Inst { return m.insts }

// SetPatch installs (or, with a nil handler, removes) a trap-and-patch site
// at addr. It reports false when addr is not an instruction boundary. Under
// an attached FPVM the patch slots are the VM's own: it is their only
// writer, before and during a run.
func (m *Machine) SetPatch(addr uint64, h PatchHandler) bool {
	i, ok := m.InstIndex(addr)
	if !ok {
		return false
	}
	m.slots[i].patch = h
	return true
}

// CorrectnessSite returns the site id installed at addr, if any.
func (m *Machine) CorrectnessSite(addr uint64) (int64, bool) {
	i, ok := m.InstIndex(addr)
	if !ok || !m.slots[i].hasSite {
		return 0, false
	}
	return m.slots[i].site, true
}

// WritableBase returns the base of writable program memory: the data segment
// (and the heap/stack above it). Addresses below it shadow the read-only code
// segment and are never written by a well-formed program, so conservative
// scanners (FPVM's GC) need not probe them — the paper's §4.1 collector scans
// "all writable program memory", not text.
func (m *Machine) WritableBase() uint64 { return m.dataBase }

// pushFrame fills the machine-owned frame of the next nesting level for a
// delivery at the instruction being dispatched; the caller pops it with
// popFrame (deferred, so a panicking handler cannot leak a level) once it has
// read the handler's results.
func (m *Machine) pushFrame(cause TrapCause, in *isa.Inst, flags fpu.Flags, site int64) *TrapFrame {
	var f *TrapFrame
	if m.frameDepth < len(m.frames) {
		f = &m.frames[m.frameDepth]
	} else {
		f = new(TrapFrame)
	}
	m.frameDepth++
	// Field stores rather than a composite literal: the literal would be
	// built on the stack and block-copied into the frame.
	f.M, f.Cause, f.Inst, f.Idx = m, cause, in, m.curIdx
	f.Flags, f.Site, f.Coalesced = flags, site, 0
	return f
}

func (m *Machine) popFrame() { m.frameDepth-- }

// deliverTrap charges delivery costs and invokes a handler on a machine-owned
// frame, returning the handler's Coalesced count. When a telemetry collector
// is attached it also emits trap entry/exit events and attributes the
// delivery's full modeled cost (entry + handler + exit) to the trap site; the
// nil path is the exact pre-telemetry sequence.
func (m *Machine) deliverTrap(h TrapHandler, k trap.Kind, cause TrapCause, in *isa.Inst, flags fpu.Flags, site int64) (int, error) {
	f := m.pushFrame(cause, in, flags, site)
	defer m.popFrame()
	entry, exit := m.Stats.Trap.Record(m.Profile, k)
	if m.Telem == nil {
		m.Cycles += entry
		err := h(f)
		m.Cycles += exit
		return f.Coalesced, err
	}
	tc := telemetryCause(f.Cause)
	before := m.Cycles
	m.Cycles += entry
	m.Telem.TrapEnter(tc, f.Idx, f.Inst.Addr, f.Inst.Op, f.Flags, m.Cycles)
	err := h(f)
	m.Cycles += exit
	m.Telem.TrapExit(tc, f.Idx, f.Inst.Addr, f.Inst.Op, f.Flags,
		m.Cycles-before, f.Coalesced, m.Cycles)
	return f.Coalesced, err
}

// dispatchPatch runs a patch handler on a machine-owned frame and returns its
// verdict and Coalesced count.
func (m *Machine) dispatchPatch(ph PatchHandler, in *isa.Inst) (handled bool, coalesced uint64, err error) {
	f := m.pushFrame(CauseFPException, in, 0, 0)
	defer m.popFrame()
	handled, err = ph(f)
	return handled, uint64(f.Coalesced), err
}

// telemetryCause maps the machine's trap cause onto the telemetry package's
// import-cycle-free mirror.
func telemetryCause(c TrapCause) telemetry.Cause {
	switch c {
	case CauseCorrectness:
		return telemetry.CauseCorrectness
	case CauseExternalCall:
		return telemetry.CauseExternal
	default:
		return telemetry.CauseFP
	}
}

// Step executes one dispatch (or delivers a trap for it). Fetch is one
// bounds-checked table access into the dense stream; the patch and
// correctness side tables ride in the same per-index slot.
//
// Contract: a Step normally retires exactly one guest instruction, but when
// an FP trap handler performs sequence emulation it may retire a whole
// straight-line run (1 + TrapFrame.Coalesced instructions) under one
// delivery. Callers that count on one-instruction granularity (lockstep
// comparators) must resynchronize on Stats.Instructions, not on Step calls.
func (m *Machine) Step() error {
	if m.halted {
		return nil
	}
	if m.RIP >= uint64(len(m.addrIdx)) {
		return m.fault("RIP not at an instruction boundary")
	}
	i := m.addrIdx[m.RIP]
	if i < 0 {
		return m.fault("RIP not at an instruction boundary")
	}
	idx := int(i)
	in := &m.insts[idx]
	slot := &m.slots[idx]
	m.curIdx = idx

	// Trap-and-patch: a patched site bypasses fetch/execute and runs the
	// patch's handler after a cheap inline check (§3.2).
	if ph := slot.patch; ph != nil {
		m.Cycles += costModel.PatchCheck
		m.Stats.PatchInvokes++
		handled, coalesced, err := m.dispatchPatch(ph, in)
		if err != nil {
			return err
		}
		if handled {
			// A patch handler may multi-retire like a coalescing trap handler
			// does: a superblock executes a whole straight-line run under one
			// patch check. Classic patches leave Coalesced at zero.
			m.Stats.Instructions += 1 + coalesced
			m.Stats.CoalescedFP += coalesced
			return nil
		}
		// Fall through: execute natively below.
	}

	return m.exec(in, slot)
}
