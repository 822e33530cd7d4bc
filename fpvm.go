// Package fpvm is a from-scratch Go reproduction of "FPVM: Towards a
// Floating Point Virtual Machine" (Dinda et al., HPDC '22): virtualization
// of IEEE floating point hardware so that an existing binary can run under
// an alternative arithmetic system — arbitrary-precision MPFR-style floats
// or posits — chosen at load time, with the original binary untouched.
//
// Because a Go process cannot safely trap-and-emulate native SIGFPE (the
// runtime owns signal handling), the x64/Linux substrate is reproduced as a
// deterministic machine simulator whose soft FPU implements real %mxcsr
// semantics; FPVM itself — NaN-boxing, the decode cache, operand binding,
// the op_map emulator, shadow-value garbage collection, value-set analysis
// and correctness patching — is implemented faithfully on top. See
// DESIGN.md for the substitution ledger and EXPERIMENTS.md for the
// paper-vs-measured results.
//
// The top-level package re-exports the main entry points; the subsystems
// live in internal/ packages:
//
//	internal/mpnat, internal/mpfr, internal/posit   arithmetic substrates
//	internal/isa, internal/fpu, internal/machine    the simulated hardware
//	internal/trap                                   exception delivery models
//	internal/nanbox, internal/arith, internal/fpvm  the paper's core
//	internal/vsa, internal/patch                    static analysis + patching
//	internal/asm, internal/workloads                toolchain + benchmarks
//	internal/session                                the load step + pooled runs
//	internal/experiments                            table/figure regeneration
//
// Quick start (NewMachine, AnalyzeAndPatch and Attach below are the one-shot
// form of the same pipeline):
//
//	prog, _ := asm.Assemble(src)             // or workloads.Get(...)
//	img, _ := patch.NewImage(prog)           // static analysis (§4.2), once
//	cfg := session.Config{Config: fpvm.Config{System: arith.NewMPFR(200)}}
//	res, _ := session.New().Run(img, cfg)    // Load, run, harvest
//	fmt.Print(res.Output)
package fpvm

import (
	"io"

	"fpvm/internal/arith"
	"fpvm/internal/fpvm"
	"fpvm/internal/isa"
	"fpvm/internal/machine"
	"fpvm/internal/patch"
	"fpvm/internal/posit"
	"fpvm/internal/telemetry"
)

// Re-exported core types: the minimal surface a downstream user needs.
type (
	// VM is an attached floating point virtual machine.
	VM = fpvm.VM
	// Config selects the arithmetic system and FPVM tuning knobs.
	Config = fpvm.Config
	// Machine is the simulated CPU the program runs on.
	Machine = machine.Machine
	// Program is an encoded binary image.
	Program = isa.Program
	// System is the alternative-arithmetic plug-in interface (§4.3).
	System = arith.System
	// PositConfig selects a posit format for NewPositSystem.
	PositConfig = posit.Config
)

// NewMachine loads a program into a fresh simulated machine whose output
// stream is out.
func NewMachine(prog *Program, out io.Writer) (*Machine, error) {
	return machine.New(prog, out)
}

// Attach installs FPVM under the loaded program: unmasks all FP exceptions,
// installs the trap handlers and the output hijack. The program's FP
// instructions will be emulated in cfg.System whenever they round, overflow,
// underflow, or touch a NaN-boxed value.
func Attach(m *Machine, cfg Config) *VM { return fpvm.Attach(m, cfg) }

// AnalyzeAndPatch runs the §4.2 static value-set analysis and installs
// correctness traps at every sink, returning the patch report.
func AnalyzeAndPatch(prog *Program, m *Machine) (*patch.Patched, error) {
	p, err := patch.Apply(prog, nil)
	if err != nil {
		return nil, err
	}
	p.Install(m)
	return p, nil
}

// NewVanillaSystem returns the IEEE-double validation system (§5.2).
func NewVanillaSystem() System { return arith.Vanilla{} }

// NewMPFRSystem returns an arbitrary-precision arithmetic system with the
// given precision in bits (the paper evaluates 200).
func NewMPFRSystem(prec uint) System { return arith.NewMPFR(prec) }

// NewPositSystem returns a posit arithmetic system. Standard formats are
// Posit8, Posit16, Posit32, and Posit64.
func NewPositSystem(cfg PositConfig) System { return arith.NewPosit(cfg) }

// NewAdaptiveMPFRSystem returns the adaptive-precision system (§4.3's
// "adaptive precision version"): precision escalates from base up to max
// bits when catastrophic cancellation is detected.
func NewAdaptiveMPFRSystem(base, max uint) System { return arith.NewAdaptiveMPFR(base, max) }

// NewIntervalSystem returns the interval arithmetic system: every shadow
// value is a rigorous enclosure of the exact result, so output interval
// widths certify the binary's accumulated rounding error.
func NewIntervalSystem() System { return arith.IntervalSystem{} }

// NewBFloat16System returns the bfloat16 (8-bit mantissa) system.
func NewBFloat16System() System { return arith.BFloat16System{} }

// AttachSpy installs FPSpy instead of FPVM: floating point events are
// recorded (by flag, by operation, by site) and the program's results are
// left bit-identical — the paper's predecessor analysis tool.
func AttachSpy(m *Machine) *Spy { return fpvm.AttachSpy(m) }

// Spy is the FPSpy-mode runtime.
type Spy = fpvm.Spy

// Telemetry is the trap-attribution and exception-flow tracing collector.
// Assign one to Machine.Telem before running to record the event stream
// (drainable as JSONL via WriteJSONL) and the per-PC trap-site table
// (rendered via WriteTopSites). With no collector attached the runtime's
// behavior and modeled cycle counts are bit-identical.
type Telemetry = telemetry.Collector

// NewTelemetry returns a telemetry collector whose event ring holds ringCap
// events (<= 0 selects the default capacity).
func NewTelemetry(ringCap int) *Telemetry { return telemetry.NewCollector(ringCap) }

// Standard posit formats, re-exported for NewPositSystem.
var (
	Posit8  = posit.Posit8
	Posit16 = posit.Posit16
	Posit32 = posit.Posit32
	Posit64 = posit.Posit64
)
