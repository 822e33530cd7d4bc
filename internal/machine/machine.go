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

// instSlot is the per-instruction entry the dispatch loop reads: the image's
// compact form, copied in at Load so the loop reads one slot per
// instruction, and the per-run patch and correctness site.
type instSlot struct {
	form
	patch PatchHandler // trap-and-patch handler, nil when unpatched
	site  int64        // correctness-trap site id
	// loop is the class the dispatch loop switches on: the form's, or
	// classInt, the general path, while a patch or a site is installed.
	loop    execClass
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
	addrIdx  []int32    // code address → index into insts; -1 off-boundary
	slots    []instSlot // one per instruction, and a general-path one past the last
	curIdx   int        // index of the instruction currently being dispatched
	dataBase uint64     // base of the writable data segment (code space below is read-only text)

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
	// per-step poll) and before each FP-trap delivery and patch-slot entry,
	// and returns a typed *DeadlineError when it is set. Another
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
	// The slot past the last instruction is where the loop lands when
	// execution runs off the end of the code: a zero slot, general path.
	if n := len(m.insts) + 1; cap(m.slots) >= n {
		m.slots = m.slots[:n]
	} else {
		m.slots = make([]instSlot, n)
	}
	for i, f := range img.forms {
		m.slots[i] = instSlot{form: f, loop: f.class}
	}
	m.slots[len(m.insts)] = instSlot{}
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
		m.setSlotClass(s.idx)
	}
	return len(m.img.sites)
}

// setSlotClass sets the class the dispatch loop sees at slot i: the form's,
// or classInt while a patch or correctness site is installed there.
func (m *Machine) setSlotClass(i int) {
	s := &m.slots[i]
	s.loop = s.class
	if s.patch != nil || s.hasSite {
		s.loop = classInt
	}
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

// boundsFault is the fault of an out-of-bounds load or store, ReadU64's and
// WriteU64's. The dispatch loop's inline load and store fault through them:
// an access out of bounds leaves the loop for the general path.
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
// observed set at a checkpoint, an FP-trap delivery or a patch-slot entry. Like BudgetError — and unlike a FaultError —
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

// preempted reports whether the preemption flag is armed and set.
func (m *Machine) preempted() bool { return m.Preempt != nil && m.Preempt.Load() }

// deadline is the error of a run stopped by the preemption flag at the
// current instruction boundary.
func (m *Machine) deadline() error {
	return &DeadlineError{RIP: m.RIP, Instructions: m.Stats.Instructions}
}

// Run executes until halt, a fault, maxInstructions retirements
// (0 = unlimited), or — when Preempt is armed — a deadline checkpoint that
// observes the flag set. It returns nil on a clean halt, *BudgetError when
// the instruction budget ran out first, and *DeadlineError when preempted.
//
// Preemption is cooperative: the flag is re-checked every
// DefaultPreemptEvery retired instructions and before each FP-trap delivery
// and patch-slot entry, never mid-instruction, so a preempted run is always
// left at an instruction boundary, in the state a budget of the same
// instruction count leaves. The trap-side checks bound a run's overshoot by
// one delivery (one emulated op, or one trace) rather than by ten thousand of
// them. Checkpoints charge no modeled cycles — an armed-but-never-fired flag
// leaves the run bit- and cycle-identical to an unarmed one.
//
// Run is the budget and checkpoint wrapper around the dispatch loop: the
// loop runs to the stop count, the smaller of the budget and the next
// checkpoint, and Run decides there whether to stop or go on.
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
		if err := m.run(stop); err != nil {
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
	m.setSlotClass(i)
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

// Step executes one dispatch (or delivers a trap for it): the dispatch loop
// with a stop of one retirement.
//
// Contract: a Step normally retires exactly one guest instruction, but when
// an FP trap handler performs sequence emulation it may retire a whole
// straight-line run (1 + TrapFrame.Coalesced instructions) under one
// delivery. Callers that count on one-instruction granularity (lockstep
// comparators) must resynchronize on Stats.Instructions, not on Step calls.
func (m *Machine) Step() error { return m.run(m.Stats.Instructions + 1) }

// run is the dispatch loop that Run and Step share: it runs from RIP until
// the machine halts, a dispatch fails, or Stats.Instructions reaches stop. Every dispatch retires at least one instruction, so it stops
// exactly at stop unless a handler retires several at once.
//
// The loop walks dense instruction indices, which stand in for RIP while it
// runs hot forms, and keeps Cycles and Stats.Instructions in locals over a
// run of them. A hot form (see
// execClass) runs inline: it moves to the next index or to its jump's
// target, adds its charge and counts itself. Everything else takes the
// general path, dispatch: a slot with a patch or a correctness site, the FP
// classes, the integer forms that are not hot, indirect jumps, a hot load
// or store out of bounds (dispatch repeats it and faults), and every
// instruction while the NaN-load extension is on. The loop stores its
// locals and dispatch sets RIP before anything else runs, so a handler sees
// exactly the state a Step at that instruction would show it; afterwards
// the loop re-derives the index from RIP once. At every exit RIP, Cycles
// and Stats are what the same instructions dispatched one Step at a time
// leave.
func (m *Machine) run(stop uint64) error {
	if m.halted {
		return nil
	}
	idx, ok := m.ripIndex()
	if !ok {
		return m.fault("RIP not at an instruction boundary")
	}
	for {
		if m.slots[idx].loop.hot() && !(m.TrapOnNaNLoad && m.CorrectnessTrap != nil) {
			slots, mem, r := m.slots, m.Mem, &m.R
			cycles, n := m.Cycles, m.Stats.Instructions
		hot:
			for {
				s := &slots[idx]
				next := idx + 1
				switch s.loop {
				case classJump:
					if m.taken(s.op) {
						next = int(s.imm)
					}
				case classMovRR:
					r[s.r0&regMask] = r[s.r1&regMask]
				case classMovRI:
					r[s.r0&regMask] = s.imm
				case classMovRM:
					addr := s.addr(r)
					if addr >= uint64(len(mem)) || uint64(len(mem))-addr < 8 {
						break hot
					}
					r[s.r0&regMask] = int64(binary.LittleEndian.Uint64(mem[addr:]))
				case classMovMR:
					addr := s.addr(r)
					if addr >= uint64(len(mem)) || uint64(len(mem))-addr < 8 {
						break hot
					}
					binary.LittleEndian.PutUint64(mem[addr:], uint64(r[s.r1&regMask]))
				case classIncR:
					d := &r[s.r0&regMask]
					*d++
					m.setIntFlags(*d, false)
				case classAddRR:
					d := &r[s.r0&regMask]
					a, b := *d, r[s.r1&regMask]
					*d = a + b
					m.setCmpFlagsAdd(a, b, *d)
				case classAddRI:
					d := &r[s.r0&regMask]
					a, b := *d, s.imm
					*d = a + b
					m.setCmpFlagsAdd(a, b, *d)
				case classAndRI:
					d := &r[s.r0&regMask]
					*d &= s.imm
					m.setIntFlags(*d, true)
				case classCmpRR:
					m.setCmpFlags(r[s.r0&regMask], r[s.r1&regMask])
				case classCmpRI:
					m.setCmpFlags(r[s.r0&regMask], s.imm)
				default:
					break hot
				}
				idx = next
				cycles += uint64(s.charge)
				n++
				if n >= stop {
					m.RIP, m.Cycles, m.Stats.Instructions = m.ripOf(idx), cycles, n
					return nil
				}
			}
			m.Cycles, m.Stats.Instructions = cycles, n
		}
		if err := m.dispatch(idx); err != nil {
			return err
		}
		if m.Stats.Instructions >= stop || m.halted {
			return nil
		}
		if idx, ok = m.ripIndex(); !ok {
			return m.fault("RIP not at an instruction boundary")
		}
	}
}

// ripIndex returns the dense index of the instruction at RIP, or false when
// RIP is not an instruction boundary.
func (m *Machine) ripIndex() (int, bool) {
	if m.RIP >= uint64(len(m.addrIdx)) {
		return 0, false
	}
	i := m.addrIdx[m.RIP]
	return int(i), i >= 0
}

// ripOf returns the address of the instruction at dense index idx; the
// index past the last instruction is the end of the code.
func (m *Machine) ripOf(idx int) uint64 {
	if idx < len(m.insts) {
		return m.insts[idx].Addr
	}
	return uint64(len(m.addrIdx))
}

// dispatch is the general path: it moves RIP to the instruction at idx and
// executes it through its patch, its correctness site, the NaN-load
// extension and exec.
func (m *Machine) dispatch(idx int) error {
	if idx >= len(m.insts) {
		m.RIP = m.ripOf(idx)
		return m.fault("RIP not at an instruction boundary")
	}
	in := &m.insts[idx]
	m.RIP = in.Addr
	slot := &m.slots[idx]
	m.curIdx = idx

	// Trap-and-patch: a patched site bypasses fetch/execute and runs the
	// patch's handler after a cheap inline check (§3.2).
	if ph := slot.patch; ph != nil {
		if m.preempted() {
			return m.deadline()
		}
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

	// Correctness-trap sites installed by the static patcher fire before
	// the instruction executes; the handler demotes NaN-boxes and the
	// original instruction is then re-executed natively (§4.2).
	if slot.hasSite && m.CorrectnessTrap != nil {
		m.Stats.CorrectTraps++
		if _, err := m.deliverTrap(m.CorrectnessTrap, m.Delivery, CauseCorrectness, in, 0, slot.site); err != nil {
			return err
		}
	}

	// §6.2 hardware extension: trap when an integer instruction is about
	// to load a NaN bit pattern (the cheap hardware check that replaces
	// static analysis). The handler demotes in place; execution then
	// proceeds, so genuine quiet-NaN data does not loop.
	f := &slot.form
	if m.TrapOnNaNLoad && m.CorrectnessTrap != nil && f.class != classFPArith &&
		f.class != classFPMove && f.class != classFPBitwise {
		if err := m.nanLoadTrap(in); err != nil {
			return err
		}
	}
	return m.exec(in, f)
}
