// fpvm-run executes a program binary (or named workload) on the machine
// simulator, natively or under FPVM with a chosen alternative arithmetic
// system — the equivalent of LD_PRELOADing the FPVM library under an
// existing binary (§4.1).
//
// Usage:
//
//	fpvm-run -workload "Lorenz Attractor" -arith mpfr -prec 200
//	fpvm-run -bin prog.fpvm -arith posit32
//	fpvm-run -asm prog.s -arith vanilla -stats
//	fpvm-run -workload "Lorenz Attractor/" -arith mpfr -trace out.jsonl -topsites 10
//	fpvm-run -oracle                          # differential oracle, all targets
//	fpvm-run -oracle -workload "Three-Body"   # oracle on one workload
//	fpvm-run -workload FBench -arith vanilla -faults seed=7,rate=0.001 -stats
//	fpvm-run -chaos -seeds 4                  # chaos suite, all targets
//	fpvm-run -chaos -workload FBench -faults seed=9,rate=0.002
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"fpvm/internal/arith"
	"fpvm/internal/asm"
	"fpvm/internal/chaos"
	"fpvm/internal/faultinject"
	"fpvm/internal/fpvm"
	"fpvm/internal/isa"
	"fpvm/internal/machine"
	"fpvm/internal/oracle"
	"fpvm/internal/patch"
	"fpvm/internal/posit"
	"fpvm/internal/sanitize"
	"fpvm/internal/session"
	"fpvm/internal/telemetry"
	"fpvm/internal/trap"
	"fpvm/internal/workloads"
)

func main() { os.Exit(Run(os.Args[1:], os.Stdout, os.Stderr)) }

// startProfiles arms the optional pprof outputs and returns a stop function
// that must run on every exit path (CPU profiling stops, and the heap profile
// is written after a forced GC so live objects dominate the snapshot).
func startProfiles(cpuPath, memPath string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err == nil {
				runtime.GC()
				pprof.Lookup("allocs").WriteTo(f, 0)
				f.Close()
			}
		}
	}, nil
}

// Run is the testable entry point: it executes the CLI with the given
// arguments and output streams and returns the process exit code. main is a
// one-line wrapper, so end-to-end tests drive the exact flag surface and
// output shapes users see.
func Run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fpvm-run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "", "named workload to run (see -list)")
		asmFile   = fs.String("asm", "", "assembly source file to assemble and run")
		arithName = fs.String("arith", "", "arithmetic system: vanilla, mpfr, adaptive, interval, bfloat16, posit8/16/32/64 (empty = native, no FPVM)")
		prec      = fs.Uint("prec", 200, "MPFR precision in bits")
		noPatch   = fs.Bool("no-patch", false, "skip static analysis and correctness patching")
		patchMode = fs.Bool("patch-mode", false, "use trap-and-patch instead of trap-and-emulate (§3.2)")
		delivery  = fs.String("delivery", "user-signal", "trap delivery model: user-signal, kernel, user-to-user")
		stats     = fs.Bool("stats", false, "print execution statistics")
		list      = fs.Bool("list", false, "list available workloads")
		maxInst   = fs.Uint64("max-inst", 0, "instruction budget (0 = unlimited)")
		timeout   = fs.Duration("timeout", 0, "wall-clock deadline: the run is preempted at the next checkpoint, truncated at an instruction boundary with partial results and stats intact, and exits 0 (0 = none)")
		spyMode   = fs.Bool("spy", false, "FPSpy mode: record FP events without changing results")
		oracleRun = fs.Bool("oracle", false, "differential oracle: run native, FPVM+vanilla (must be bit-identical), and high-precision shadows, and report divergence")
		seqlen    = fs.Int("seqlen", 0, "sequence emulation: coalesce up to N straight-line FP instructions into one trap delivery (0 = off)")
		jit       = fs.Int("jit", 0, "trace-JIT: after N deliveries at one site, compile its run into a cached superblock that re-enters with zero delivery/decode/bind (0 = off)")
		traceOut  = fs.String("trace", "", "write the telemetry event stream (trap entry/exit, promotions, demotions, GC epochs, sequences) to this JSONL file")
		topSites  = fs.Int("topsites", 0, "print the N hottest trap sites (per-PC hits, attributed cycles, exception flags) after the run")
		sanRun    = fs.Bool("sanitize", false, "numerical sanitizer: shadow every emulated FP op with high-precision and interval arithmetic and report ranked cancellation/error sites (results stay bit-identical)")
		sanThresh = fs.Float64("sanitize-threshold", sanitize.DefaultThresholdBits, "lost-bits threshold above which a site is flagged (with -sanitize)")
		sanPrec   = fs.Uint("sanitize-prec", 0, "high-precision shadow mantissa bits (0 = default, with -sanitize)")
		certify   = fs.Bool("certify", false, "interval certification: record an enclosure per guest output and fail unless every native output is proved contained (implies -sanitize)")
		faults    = fs.String("faults", "", "fault-injection spec, e.g. seed=7,rate=0.001,decode=0.01,corrupt=0.0001,site=0x40:emulate")
		chaosRun  = fs.Bool("chaos", false, "chaos suite: sweep targets through seeded fault-injection campaigns and enforce the degradation invariants")
		seeds     = fs.Int("seeds", 3, "injection seeds per target per tier (with -chaos)")
		cpuProf   = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf   = fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "fpvm-run:", err)
		return 1
	}

	sanitizing := *sanRun || *certify
	if sanitizing && *arithName == "" {
		// The sanitizer wraps an arithmetic system; certification soundness is
		// stated against Vanilla's per-op rounding, so that is the default.
		*arithName = "vanilla"
	}

	vmCfg := vmConfig(*seqlen, *jit, sanitizing, *sanPrec, *sanThresh, *certify)

	stopProf, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		return fail(err)
	}
	defer stopProf()

	if *list {
		for _, n := range workloads.Names() {
			fmt.Fprintln(stdout, n)
		}
		return 0
	}

	var injectCfg *faultinject.Config
	if *faults != "" {
		cfg, err := faultinject.ParseSpec(*faults)
		if err != nil {
			return fail(fmt.Errorf("-faults: %w", err))
		}
		injectCfg = &cfg
	}

	if *chaosRun {
		return runChaos(stdout, stderr, *workload, injectCfg, *seeds, *maxInst, vmCfg)
	}

	if *oracleRun {
		return runOracle(stdout, stderr, *workload, *asmFile, *prec, *maxInst, *noPatch, vmCfg, injectCfg)
	}

	prog, err := loadProgram(*workload, *asmFile)
	if err != nil {
		return fail(err)
	}

	kind, ok := deliveryKinds[*delivery]
	if !ok {
		return fail(fmt.Errorf("unknown delivery model %q", *delivery))
	}

	// FPSpy and native runs have no FPVM runtime for the VM settings to act
	// on; refuse them rather than drop them silently.
	vmFlags := injectCfg != nil || vmCfg.MaxSequenceLen > 0 || vmCfg.JITThreshold > 0 || vmCfg.Sanitize != nil
	if vmFlags && (*spyMode || *arithName == "") {
		return fail(fmt.Errorf("-faults, -seqlen, -jit and -sanitize act on the FPVM runtime; pick an -arith system without -spy"))
	}

	// -timeout arms the same cooperative checkpoints the serving stack uses
	// for request deadlines (DESIGN.md §13): a timer goroutine stores the
	// flag, Run observes it at an instruction boundary, and the truncated
	// run is harvested like a budget exhaustion rather than killed.
	var cancel *atomic.Bool
	if *timeout > 0 {
		cancel = new(atomic.Bool)
		timer := time.AfterFunc(*timeout, func() { cancel.Store(true) })
		defer timer.Stop()
	}
	telemetryOn := *traceOut != "" || *topSites > 0

	var m *machine.Machine
	var vm *fpvm.VM
	var inj *faultinject.Injector
	if *spyMode || *arithName == "" {
		if m, err = machine.New(prog, stdout); err != nil {
			return fail(err)
		}
		m.Preempt = cancel
		if telemetryOn {
			m.Telem = telemetry.NewCollector(0)
		}
	} else {
		sys, err := arith.Select(*arithName, *prec)
		if err != nil {
			return fail(err)
		}
		// One analysis: its report feeds -stats, its sites the image.
		var sites map[uint64]int64
		if !*noPatch {
			p, err := patch.Apply(prog, nil)
			if err != nil {
				return fail(fmt.Errorf("static analysis: %w", err))
			}
			if *stats {
				p.Summary(stderr)
			}
			sites = p.Sites
		}
		img, err := machine.NewImage(prog, sites)
		if err != nil {
			return fail(err)
		}
		if injectCfg != nil {
			inj = faultinject.New(*injectCfg)
		}
		cfg := session.Config{Config: vmCfg, Cancel: cancel, NoPatch: *noPatch, Telemetry: telemetryOn}
		cfg.System = sys
		cfg.Inject = inj
		s := session.New()
		if err := s.Load(img, stdout, cfg); err != nil {
			return fail(err)
		}
		m, vm = s.Machine(), s.VM()
		if *patchMode {
			vm.PatchAllFPArith()
		}
	}
	m.Delivery = kind

	if *spyMode {
		spy := fpvm.AttachSpy(m)
		if err := runToDeadline(m, *maxInst, stderr); err != nil {
			return fail(err)
		}
		spy.Report(stderr, 10)
		return finishTelemetry(stdout, stderr, m.Telem, *traceOut, *topSites)
	}

	if err := runToDeadline(m, *maxInst, stderr); err != nil {
		return fail(err)
	}

	if *stats {
		fmt.Fprintf(stderr, "instructions: %d (fp: %d)\n",
			m.Stats.Instructions, m.Stats.FPInstructions)
		fmt.Fprintf(stderr, "cycles:       %d\n", m.Cycles)
		if vm != nil {
			s := vm.Stats
			fmt.Fprintf(stderr, "fp traps:     %d (decode cache hit rate %.4f)\n",
				s.Traps, hitRate(s.DecodeHits, s.DecodeMisses))
			if s.Sequences > 0 {
				fmt.Fprintf(stderr, "seqemu:       %d sequences, %d coalesced (mean run %.2f)\n",
					s.Sequences, s.Coalesced,
					float64(s.Traps+s.Coalesced)/float64(s.Traps))
			}
			if ms := m.Stats; ms.SBCompiled > 0 || ms.SBHits > 0 {
				fmt.Fprintf(stderr, "jit:          %d superblocks compiled, %d hits\n",
					ms.SBCompiled, ms.SBHits)
			}
			fmt.Fprintf(stderr, "emulated:     %d scalars (promotions %d, unboxings %d)\n",
				s.Emulated, s.Promotions, s.Unboxings)
			fmt.Fprintf(stderr, "correctness:  %d traps, %d demotions\n",
				s.CorrectTraps, s.Demotions)
			fmt.Fprintf(stderr, "gc:           %d passes, %d freed, %d alive\n",
				s.GC.Passes, s.GC.TotalFreed, vm.Arena.Live())
			if s.Degradations > 0 {
				fmt.Fprintf(stderr, "resilience:   %d degradations\n", s.Degradations)
			}
			if inj != nil {
				fmt.Fprintf(stderr, "injected:     %s (%d boxes corrupted)\n",
					inj.Summary(), inj.Corrupted)
			}
			fmt.Fprintf(stderr, "trap delivery: %d cycles over %d traps\n",
				m.Stats.Trap.TotalCycles(), m.Stats.Trap.Delivered)
		}
	}
	rc := finishTelemetry(stdout, stderr, m.Telem, *traceOut, *topSites)
	if sanitizing {
		rep := vm.Sanitizer().Snapshot()
		n := *topSites
		if n <= 0 {
			n = 10
		}
		rep.Write(stdout, n)
		if c := rep.Certification; c != nil {
			c.Write(stdout)
			if !c.Pass() && rc == 0 {
				rc = 1
			}
		}
	}
	return rc
}

// deliveryKinds maps -delivery to the machine's trap delivery model.
var deliveryKinds = map[string]trap.Kind{
	"user-signal":  trap.DeliverUserSignal,
	"kernel":       trap.DeliverKernel,
	"user-to-user": trap.DeliverUserToUser,
}

// vmConfig maps the VM flags to the one fpvm.Config that the single run,
// -oracle and -chaos all run under; each mode sets System (and Inject) for
// its own runs.
func vmConfig(seqLen, jit int, sanitizing bool, sanPrec uint, sanThresh float64, certify bool) fpvm.Config {
	cfg := fpvm.Config{MaxSequenceLen: seqLen, JITThreshold: jit}
	if sanitizing {
		cfg.Sanitize = &sanitize.Options{Prec: sanPrec, ThresholdBits: sanThresh, Certify: certify}
	}
	return cfg
}

// runToDeadline runs the machine and degrades a deadline preemption the way
// the serving stack degrades a request deadline: the truncated run keeps all
// harvested state (output, stats, telemetry — consistent at an instruction
// boundary), a note goes to stderr, and the exit code stays 0. Every other
// error remains fatal.
func runToDeadline(m *machine.Machine, maxInst uint64, stderr io.Writer) error {
	err := m.Run(maxInst)
	var dl *machine.DeadlineError
	if errors.As(err, &dl) {
		fmt.Fprintf(stderr, "fpvm-run: deadline exceeded at %#x after %d instructions; run truncated\n",
			dl.RIP, dl.Instructions)
		return nil
	}
	return err
}

// finishTelemetry renders the post-run telemetry artifacts: the hot-site
// ranking to stdout and the JSONL event trace to the -trace file.
func finishTelemetry(stdout, stderr io.Writer, telem *telemetry.Collector, traceOut string, topSites int) int {
	if telem == nil {
		return 0
	}
	if topSites > 0 {
		telem.WriteTopSites(stdout, topSites)
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fmt.Fprintln(stderr, "fpvm-run:", err)
			return 1
		}
		werr := telem.WriteJSONL(f)
		cerr := f.Close()
		if werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(stderr, "fpvm-run: writing trace:", werr)
			return 1
		}
	}
	return 0
}

// runOracle executes the differential oracle — over one named target when
// -workload or -asm is given, else over every workload and example — and
// returns non-zero if any virtualized-vanilla run is not bit-identical to
// native execution.
func runOracle(stdout, stderr io.Writer, workload, asmFile string, prec uint, maxInst uint64, noPatch bool, vmCfg fpvm.Config, inject *faultinject.Config) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "fpvm-run:", err)
		return 1
	}
	var targets []oracle.Target
	switch {
	case workload != "":
		t, err := oracle.Lookup(workload)
		if err != nil {
			return fail(err)
		}
		targets = []oracle.Target{t}
	case asmFile != "":
		src, err := os.ReadFile(asmFile)
		if err != nil {
			return fail(err)
		}
		targets = []oracle.Target{{
			Name:  asmFile,
			Build: func() (*isa.Program, error) { return asm.Assemble(string(src)) },
		}}
	default:
		targets = oracle.AllTargets()
	}

	opts := oracle.Options{
		Systems: []arith.System{arith.NewMPFR(prec), arith.NewPosit(posit.Posit32)},
		MaxInst: maxInst,
		NoPatch: noPatch,
		VM:      vmCfg,
		Inject:  inject,
	}
	failed := 0
	for i, t := range targets {
		rep, err := oracle.Run(t, opts)
		if err != nil {
			return fail(err)
		}
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		rep.Write(stdout)
		if !rep.Ok() {
			failed++
		}
	}
	fmt.Fprintf(stdout, "\noracle: %d/%d targets bit-identical under virtualized vanilla\n",
		len(targets)-failed, len(targets))
	if failed > 0 {
		return 1
	}
	return 0
}

// runChaos executes the chaos suite: seeded fault-injection campaigns over
// the selected targets (all of them when -workload is empty), enforcing the
// hard degradation invariants. A -faults spec seeds the sweep: its seed
// becomes the base seed, its highest seam rate the uniform error rate, and
// its corrupt rate the corruption-tier rate.
func runChaos(stdout, stderr io.Writer, workload string, inject *faultinject.Config, seeds int, maxInst uint64, vmCfg fpvm.Config) int {
	opts := chaos.Options{
		Seeds:   seeds,
		VM:      vmCfg,
		MaxInst: maxInst,
		Log:     stderr,
	}
	if workload != "" {
		t, err := oracle.Lookup(workload)
		if err != nil {
			fmt.Fprintln(stderr, "fpvm-run:", err)
			return 1
		}
		opts.Targets = []oracle.Target{t}
	}
	if inject != nil {
		opts.BaseSeed = inject.Seed
		for seam, r := range inject.Rate {
			// run-panic is its own tier, not part of the uniform error
			// sweep: it escapes the degradation engine by design, so its
			// rate arms the panic tier instead of inflating the error rate.
			if faultinject.Seam(seam) == faultinject.SeamRunPanic {
				opts.PanicRate = r
				continue
			}
			if r > opts.Rate {
				opts.Rate = r
			}
		}
		if inject.CorruptRate > 0 {
			opts.CorruptRate = inject.CorruptRate
		}
	}
	s := chaos.Run(opts)
	s.WriteReport(stdout)
	if !s.Ok() {
		return 1
	}
	return 0
}

func loadProgram(workload, asmFile string) (*isa.Program, error) {
	switch {
	case workload != "":
		w, ok := workloads.Get(workload)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (try -list)", workload)
		}
		return w.Build()
	case asmFile != "":
		src, err := os.ReadFile(asmFile)
		if err != nil {
			return nil, err
		}
		return asm.Assemble(string(src))
	default:
		return nil, fmt.Errorf("one of -workload or -asm is required")
	}
}

func hitRate(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
