// Package telemetry is the runtime's trap-attribution and exception-flow
// tracing subsystem. The FPVM paper's evaluation (§5, Figures 9–12) rests on
// knowing where traps come from and what each one cost; FlowFPX's coverage
// reports and NSan's per-operation shadow sampling show the same per-site
// attribution is the key debugging artifact for FP-exception tooling. This
// package provides both halves:
//
//   - an allocation-free ring buffer of fixed-size Events (trap entry/exit,
//     promotion, demotion, unboxing, GC epoch, coalesced sequence,
//     correctness trap), recorded by the machine and the FPVM runtime and
//     drainable as JSONL (`fpvm-run -trace out.jsonl`); and
//
//   - a per-PC trap-site aggregation table (hits by cause, modeled delivery
//     cycles, op kind, coalesced-run lengths, exception-flag coverage)
//     rendered as a FlowFPX-style hot-site ranking
//     (`fpvm-run -topsites N`, `fpvm-bench -json -topsites N`).
//
// The collector hangs off machine.Machine.Telem behind a nil check: with no
// collector attached, the emission sites reduce to a single pointer compare,
// no event is constructed, and the modeled cycle accounting is untouched —
// the disabled path is bit-identical to a build without telemetry. Even when
// enabled, the collector is strictly observational: it never charges cycles,
// so attaching it cannot perturb the deterministic cost model.
package telemetry

import (
	"fpvm/internal/fpu"
	"fpvm/internal/isa"
)

// EventKind discriminates ring-buffer events.
type EventKind uint8

const (
	// EvTrapEnter marks trap delivery: the machine charged the entry cost
	// and is about to run the handler. Arg carries the MXCSR flag set (FP
	// traps) or the site id (correctness traps).
	EvTrapEnter EventKind = iota
	// EvTrapExit marks handler return: the machine charged the exit cost.
	// Arg carries the modeled cycles of the whole delivery (entry + handler
	// + exit); Aux carries the coalesced-instruction count.
	EvTrapExit
	// EvPromote records a float64 → shadow promotion (operand materialized
	// into the alternative arithmetic).
	EvPromote
	// EvDemote records a shadow → float64 in-place demotion.
	EvDemote
	// EvUnbox records a NaN-boxed operand resolved to its live shadow cell.
	EvUnbox
	// EvGCEpoch records one mark-and-sweep pass. Arg is cells freed, Aux is
	// cells still alive.
	EvGCEpoch
	// EvSequence records a coalesced straight-line run emulated under one
	// delivery. Arg is the run length including the faulting instruction.
	EvSequence
	// EvCorrectness records a correctness-trap demotion pass. Arg is the
	// site id as installed by the static patcher (uint64(int64) encoded).
	EvCorrectness
	// EvDegrade records one graceful degradation: an emulation-path failure
	// demoted the frame's operands and re-executed the instruction natively
	// with IEEE semantics instead of killing the run. Arg is the
	// DegradeCause.
	EvDegrade
	// EvSBCompile records the trace-JIT tier compiling a superblock at a hot
	// site: subsequent entries re-execute the trace with zero delivery, zero
	// decode, and zero bind. Arg is the trace length in instructions.
	EvSBCompile
)

// String names the event kind as it appears in JSONL output.
func (k EventKind) String() string {
	switch k {
	case EvTrapEnter:
		return "trap-enter"
	case EvTrapExit:
		return "trap-exit"
	case EvPromote:
		return "promote"
	case EvDemote:
		return "demote"
	case EvUnbox:
		return "unbox"
	case EvGCEpoch:
		return "gc-epoch"
	case EvSequence:
		return "sequence"
	case EvCorrectness:
		return "correctness"
	case EvDegrade:
		return "degrade"
	case EvSBCompile:
		return "sb-compile"
	default:
		return "event?"
	}
}

// DegradeCause says why the graceful-degradation engine demoted a frame and
// fell back to native IEEE execution. The constants double as indices into
// per-cause counters.
type DegradeCause uint8

const (
	// DegradeDecode: the decoder could not translate the instruction (an
	// unsupported or non-FP form reached the FP trap path).
	DegradeDecode DegradeCause = iota
	// DegradeBind: operand binding / address resolution failed.
	DegradeBind
	// DegradeEmulate: the emulator dispatch itself failed.
	DegradeEmulate
	// DegradeArena: the shadow arena hit its hard cap (or an allocation
	// fault was injected); the result cannot be boxed.
	DegradeArena
	// DegradeGCScan: a garbage-collection scan failed; the pass was
	// abandoned without sweeping (garbage retention, never a bad free).
	DegradeGCScan
	// DegradeMem: a guest memory operand access failed on the emulation
	// path.
	DegradeMem
	// DegradeJIT: the trace-JIT superblock compiler failed (injected fault at
	// the sb-compile seam or an unexpected translate failure); the site keeps
	// its classic per-trap path and is blacklisted from recompilation.
	DegradeJIT
	// DegradeSanitize: the numerical sanitizer's shadow bookkeeping failed
	// (injected fault at the sanitize seam); the report is truncated and
	// observation stops, but the guest run itself continues unharmed.
	DegradeSanitize

	// NumDegradeCauses sizes per-cause counter arrays.
	NumDegradeCauses = int(DegradeSanitize) + 1
)

// String names the cause as it appears in JSONL traces and reports.
func (c DegradeCause) String() string {
	switch c {
	case DegradeDecode:
		return "decode"
	case DegradeBind:
		return "bind"
	case DegradeEmulate:
		return "emulate"
	case DegradeArena:
		return "arena"
	case DegradeGCScan:
		return "gc-scan"
	case DegradeMem:
		return "mem-access"
	case DegradeJIT:
		return "jit-compile"
	case DegradeSanitize:
		return "sanitize"
	default:
		return "cause?"
	}
}

// Cause says which trap class an EvTrapEnter/EvTrapExit event belongs to.
// The values mirror machine.TrapCause, re-declared here so the machine can
// depend on telemetry without a cycle.
type Cause uint8

const (
	CauseFP Cause = iota
	CauseCorrectness
	CauseExternal
	CauseNone // non-trap events
)

func (c Cause) String() string {
	switch c {
	case CauseFP:
		return "fp"
	case CauseCorrectness:
		return "correctness"
	case CauseExternal:
		return "external-call"
	case CauseNone:
		return ""
	default:
		return "cause?"
	}
}

// Event is one fixed-size telemetry record. It contains no pointers, so
// recording is a struct copy into the ring — no allocation, nothing for the
// Go GC to trace.
type Event struct {
	Kind   EventKind
	Cause  Cause
	Op     isa.Op    // instruction mnemonic, 0 when not applicable
	Flags  fpu.Flags // MXCSR condition flags (FP trap entries)
	Idx    int32     // dense instruction index, -1 when not applicable
	PC     uint64    // guest code address the event is attributed to
	Cycles uint64    // machine cycle clock at emission
	Arg    uint64    // kind-specific payload (see EventKind docs)
	Aux    uint64    // kind-specific secondary payload
}

// Site is one row of the per-PC aggregation table: everything the hot-site
// ranking and the exception-flow report need about one instruction address.
type Site struct {
	PC uint64
	Op isa.Op

	Traps        uint64    // FP exception deliveries at this PC
	CorrectTraps uint64    // correctness deliveries
	ExtTraps     uint64    // external-call deliveries
	Cycles       uint64    // modeled cycles of those deliveries (entry+handler+exit)
	Coalesced    uint64    // extra instructions retired inside deliveries here
	RunSum       uint64    // sum of per-delivery run lengths (faulting inst included)
	MaxRun       int       // longest coalesced run rooted at this PC
	Flags        fpu.Flags // union of MXCSR condition flags seen at this PC
	Degradations uint64    // graceful degradations rooted at this PC

	// Trace-JIT attribution: superblocks rooted at this PC.
	SBCompiles uint64 // superblocks compiled here
	SBHits     uint64 // superblock entries served here (zero-delivery)
	SBRetired  uint64 // instructions retired by superblock entries here

	// Numerical-sanitizer attribution (internal/sanitize mirrors its per-PC
	// observations here when a sanitizer runs with telemetry attached).
	SanSamples uint64  // shadow-compared result lanes produced at this PC
	SanFlagged bool    // a sample crossed the sanitizer's lost-bits threshold
	SanMaxLost float64 // worst shadow-verified precision loss (bits, <= 53)
}

// MeanRun returns the mean coalesced-run length per FP delivery at this site
// (1.0 when sequence emulation never extended a delivery).
func (s *Site) MeanRun() float64 {
	if s.Traps == 0 {
		return 0
	}
	return float64(s.RunSum) / float64(s.Traps)
}

// Collector receives telemetry from the machine and the FPVM runtime. A nil
// *Collector is the disabled state; every emission site must check for nil
// before calling in.
type Collector struct {
	ring  *Ring
	sites []Site // dense, indexed by the machine's instruction index
}

// DefaultRingCap is the event capacity of a collector whose ring size is not
// specified. At ~64 bytes per event this bounds the ring near 4 MiB.
const DefaultRingCap = 1 << 16

// NewCollector returns a collector with a ring of the given event capacity
// (<= 0 selects DefaultRingCap). The per-PC site table grows on demand as
// traps attribute to new instruction indices.
func NewCollector(ringCap int) *Collector {
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	return &Collector{ring: NewRing(ringCap)}
}

// Ring exposes the collector's event ring.
func (c *Collector) Ring() *Ring { return c.ring }

// Reset empties the collector for reuse while retaining the ring buffer and
// the site table's capacity: a reset collector records exactly like a fresh
// one (rows regrow by appending zero values over the retained backing
// array), which is what makes telemetry per-session poolable state.
func (c *Collector) Reset() {
	c.ring.Reset()
	c.sites = c.sites[:0]
}

// site returns the aggregation row for instruction index idx, growing the
// dense table as needed. idx < 0 (synthetic sites) maps to a shared slot 0
// guard — callers pass real indices for everything the machine dispatches.
func (c *Collector) site(idx int, pc uint64, op isa.Op) *Site {
	if idx < 0 {
		idx = 0
	}
	for idx >= len(c.sites) {
		c.sites = append(c.sites, Site{})
	}
	s := &c.sites[idx]
	s.PC, s.Op = pc, op
	return s
}

// Sites returns the dense per-PC table (rows with zero hits are untouched
// slots). The slice is the collector's own; callers must not mutate it.
func (c *Collector) Sites() []Site { return c.sites }

// SanitizeNote folds one numerical-sanitizer observation into the site
// table: per-op observations count a sample, boundary crossings mark the
// blamed site flagged. Unlike the trap paths it never overwrites the row's
// Op: the sanitizer speaks abstract arith ops, and the trap that delivered
// this instruction already recorded the mnemonic.
func (c *Collector) SanitizeNote(idx int, pc uint64, lostBits float64, sample, flagged bool) {
	if idx < 0 {
		idx = 0
	}
	for idx >= len(c.sites) {
		c.sites = append(c.sites, Site{})
	}
	s := &c.sites[idx]
	s.PC = pc
	if sample {
		s.SanSamples++
	}
	if flagged {
		s.SanFlagged = true
	}
	if lostBits > s.SanMaxLost {
		s.SanMaxLost = lostBits
	}
}

// TrapEnter records a trap delivery entering its handler.
func (c *Collector) TrapEnter(cause Cause, idx int, pc uint64, op isa.Op, flags fpu.Flags, cycles uint64) {
	c.ring.Record(Event{
		Kind: EvTrapEnter, Cause: cause, Op: op, Flags: flags,
		Idx: int32(idx), PC: pc, Cycles: cycles, Arg: uint64(flags),
	})
}

// TrapExit records a trap delivery returning, attributing its full modeled
// cost and coalesced-run length to the trap site.
func (c *Collector) TrapExit(cause Cause, idx int, pc uint64, op isa.Op, flags fpu.Flags, cost uint64, coalesced int, cycles uint64) {
	c.ring.Record(Event{
		Kind: EvTrapExit, Cause: cause, Op: op,
		Idx: int32(idx), PC: pc, Cycles: cycles, Arg: cost, Aux: uint64(coalesced),
	})
	s := c.site(idx, pc, op)
	s.Cycles += cost
	switch cause {
	case CauseFP:
		s.Traps++
		s.Flags |= flags
		run := 1 + coalesced
		s.Coalesced += uint64(coalesced)
		s.RunSum += uint64(run)
		if run > s.MaxRun {
			s.MaxRun = run
		}
	case CauseCorrectness:
		s.CorrectTraps++
	case CauseExternal:
		s.ExtTraps++
	}
}

// Promotion records a float64 → shadow conversion attributed to pc.
func (c *Collector) Promotion(pc uint64, cycles uint64) {
	c.ring.Record(Event{Kind: EvPromote, Cause: CauseNone, Idx: -1, PC: pc, Cycles: cycles})
}

// Demotion records a shadow → float64 in-place demotion attributed to pc.
func (c *Collector) Demotion(pc uint64, cycles uint64) {
	c.ring.Record(Event{Kind: EvDemote, Cause: CauseNone, Idx: -1, PC: pc, Cycles: cycles})
}

// Unboxing records a boxed-operand shadow lookup attributed to pc.
func (c *Collector) Unboxing(pc uint64, cycles uint64) {
	c.ring.Record(Event{Kind: EvUnbox, Cause: CauseNone, Idx: -1, PC: pc, Cycles: cycles})
}

// GCEpoch records one mark-and-sweep pass: cells freed and cells alive.
func (c *Collector) GCEpoch(freed, alive int, cycles uint64) {
	c.ring.Record(Event{
		Kind: EvGCEpoch, Cause: CauseNone, Idx: -1,
		Cycles: cycles, Arg: uint64(freed), Aux: uint64(alive),
	})
}

// Sequence records a coalesced run of runLen instructions (faulting
// instruction included) rooted at pc.
func (c *Collector) Sequence(idx int, pc uint64, op isa.Op, runLen int, cycles uint64) {
	c.ring.Record(Event{
		Kind: EvSequence, Cause: CauseFP, Op: op,
		Idx: int32(idx), PC: pc, Cycles: cycles, Arg: uint64(runLen),
	})
}

// Degradation records one graceful degradation rooted at pc: the cause, the
// instruction, and the cycle clock when the engine fell back to native IEEE
// execution.
func (c *Collector) Degradation(idx int, pc uint64, op isa.Op, cause DegradeCause, cycles uint64) {
	c.ring.Record(Event{
		Kind: EvDegrade, Cause: CauseNone, Op: op,
		Idx: int32(idx), PC: pc, Cycles: cycles, Arg: uint64(cause),
	})
	c.site(idx, pc, op).Degradations++
}

// SBCompile records the trace-JIT tier compiling a superblock of traceLen
// instructions rooted at pc.
func (c *Collector) SBCompile(idx int, pc uint64, op isa.Op, traceLen int, cycles uint64) {
	c.ring.Record(Event{
		Kind: EvSBCompile, Cause: CauseNone, Op: op,
		Idx: int32(idx), PC: pc, Cycles: cycles, Arg: uint64(traceLen),
	})
	c.site(idx, pc, op).SBCompiles++
}

// SBHit attributes one superblock entry (retiring retired instructions) to
// the site at pc. Hits are aggregated into the site table only — they replace
// former trap deliveries and would flood the event ring.
func (c *Collector) SBHit(idx int, pc uint64, op isa.Op, retired int) {
	s := c.site(idx, pc, op)
	s.SBHits++
	s.SBRetired += uint64(retired)
}

// Correctness records a correctness-trap demotion pass at pc with the static
// patcher's site id.
func (c *Collector) Correctness(idx int, pc uint64, op isa.Op, siteID int64, cycles uint64) {
	c.ring.Record(Event{
		Kind: EvCorrectness, Cause: CauseCorrectness, Op: op,
		Idx: int32(idx), PC: pc, Cycles: cycles, Arg: uint64(siteID),
	})
}

// TrapTotals sums the per-site hit counters: the cross-check that the site
// table and the runtime's aggregate Stats describe the same run.
func (c *Collector) TrapTotals() (fp, correct, ext uint64) {
	for i := range c.sites {
		fp += c.sites[i].Traps
		correct += c.sites[i].CorrectTraps
		ext += c.sites[i].ExtTraps
	}
	return fp, correct, ext
}
