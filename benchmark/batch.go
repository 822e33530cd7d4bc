package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"fpvm"
)

// tier selects the FPVM execution tiers the way fpvm-run's -seqemu and -jit
// flags do: only through MaxSequenceLen and JITThreshold.
type tier struct {
	seqLen int
	jit    int
}

// runConfig is one arithmetic system on one tier stack.
type runConfig struct {
	arith string // "mpfr" (MPFR-200) or "vanilla"
	tier
}

func (c runConfig) String() string {
	return fmt.Sprintf("%s/seqlen=%d/jit=%d", c.arith, c.seqLen, c.jit)
}

func (c runConfig) system() fpvm.System {
	if c.arith == "mpfr" {
		return fpvm.NewMPFRSystem(200)
	}
	return fpvm.NewVanillaSystem()
}

var (
	mpfrPlain    = runConfig{"mpfr", tier{}}
	mpfrSeqJIT   = runConfig{"mpfr", tier{seqLen: 16, jit: 8}}
	vanillaPlain = runConfig{"vanilla", tier{}}
)

// counters are the per-run counts read from Stats, summed over a pass.
// Each repeats exactly for the same programs and configuration.
type counters struct {
	instructions, fpTraps, sbCompiled, sbHits, deliveryCycles            uint64
	decodeHits, decodeMisses, emulated, coalesced, promotions, unboxings uint64
	gcPasses, degradations, patchSites                                   uint64
	decodeCycles, bindCycles, emulateCycles, gcCycles, correctCycles     uint64
	virtCycles                                                           uint64
	arenaHighWater                                                       int
}

func (c *counters) add(o counters) {
	c.instructions += o.instructions
	c.fpTraps += o.fpTraps
	c.sbCompiled += o.sbCompiled
	c.sbHits += o.sbHits
	c.deliveryCycles += o.deliveryCycles
	c.decodeHits += o.decodeHits
	c.decodeMisses += o.decodeMisses
	c.emulated += o.emulated
	c.coalesced += o.coalesced
	c.promotions += o.promotions
	c.unboxings += o.unboxings
	c.gcPasses += o.gcPasses
	c.degradations += o.degradations
	c.patchSites += o.patchSites
	c.decodeCycles += o.decodeCycles
	c.bindCycles += o.bindCycles
	c.emulateCycles += o.emulateCycles
	c.gcCycles += o.gcCycles
	c.correctCycles += o.correctCycles
	c.virtCycles += o.virtCycles
	c.arenaHighWater = max(c.arenaHighWater, o.arenaHighWater)
}

// runOutcome is one program run through the one-shot pipeline.
type runOutcome struct {
	output string
	counts counters
	hostNS int64
}

// runPipeline does what `fpvm-run -arith <sys> [-seqemu] [-jit]` does for
// one program, with nothing carried over from earlier runs: build, new
// machine, analyse and patch, attach, run. With a tracer it records one span
// per layer call under a root span for the run, and the arith calls as
// folded leaves of the run span.
func runPipeline(build func() (*fpvm.Program, error), cfg runConfig, tr *tracer, req int32) (runOutcome, error) {
	start := time.Now()
	root := tr.begin("program", 0, req)
	defer tr.end(root)

	sp := tr.begin("asm", root, req)
	prog, err := build()
	tr.end(sp)
	if err != nil {
		return runOutcome{}, err
	}
	var out bytes.Buffer
	sp = tr.begin("machine.new", root, req)
	m, err := fpvm.NewMachine(prog, &out)
	tr.end(sp)
	if err != nil {
		return runOutcome{}, err
	}
	sp = tr.begin("patch", root, req)
	p, err := fpvm.AnalyzeAndPatch(prog, m)
	tr.end(sp)
	if err != nil {
		return runOutcome{}, fmt.Errorf("analyse and patch: %w", err)
	}
	sys := cfg.system()
	var traced *tracedSystem
	if tr != nil {
		traced = &tracedSystem{System: sys}
		sys = traced
	}
	sp = tr.begin("fpvm.attach", root, req)
	vm := fpvm.Attach(m, fpvm.Config{System: sys, MaxSequenceLen: cfg.seqLen, JITThreshold: cfg.jit})
	tr.end(sp)
	sp = tr.begin("machine.run", root, req)
	err = m.Run(0)
	tr.end(sp)
	if traced != nil {
		traced.flush(tr, sp)
	}
	if err != nil {
		return runOutcome{}, fmt.Errorf("run: %w", err)
	}
	ms, vs := m.Stats, vm.Stats
	c := counters{
		instructions:   ms.Instructions,
		fpTraps:        ms.FPTraps,
		sbCompiled:     ms.SBCompiled,
		sbHits:         ms.SBHits,
		deliveryCycles: ms.Trap.TotalCycles(),
		decodeHits:     vs.DecodeHits,
		decodeMisses:   vs.DecodeMisses,
		emulated:       vs.Emulated,
		coalesced:      vs.Coalesced,
		promotions:     vs.Promotions,
		unboxings:      vs.Unboxings,
		gcPasses:       vs.GC.Passes,
		degradations:   vs.Degradations,
		patchSites:     uint64(len(p.Sites)),
		decodeCycles:   vs.Cycles.Decode,
		bindCycles:     vs.Cycles.Bind,
		emulateCycles:  vs.Cycles.Emulate,
		gcCycles:       vs.Cycles.GC,
		correctCycles:  vs.Cycles.Correctness,
		virtCycles:     m.Cycles,
		arenaHighWater: vs.GC.ArenaHighWater,
	}
	return runOutcome{output: out.String(), counts: c, hostNS: time.Since(start).Nanoseconds()}, nil
}

// batchRef is what a batch run's output is checked against, plus the native
// cycles modeled_slowdown divides by.
type batchRef struct {
	want         string
	nativeCycles uint64
}

// batchSetup builds every program, runs it natively, and loads or computes
// its reference: the checked-in MPFR-200 file under MPFR, the native output
// under Vanilla. MPFR output is never compared with native output (Lorenz
// and Three-Body legitimately diverge). It ends with an untimed warm-up run
// of every program.
func batchSetup(cfg runConfig, expectedDir string) (map[string]batchRef, error) {
	refs := map[string]batchRef{}
	for _, name := range fig12Names() {
		prog, err := buildNamed(name)
		if err != nil {
			return nil, err
		}
		nat, err := runNative(prog)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		ref := batchRef{want: nat.output, nativeCycles: nat.cycles}
		switch {
		case cfg.arith != "mpfr":
		case unreproducible[name]:
			o, err := runPipeline(named(name), mpfrPlain, nil, 0)
			if err != nil {
				return nil, fmt.Errorf("%s reference: %w", name, err)
			}
			ref.want = o.output
		default:
			if ref.want, err = loadExpected(expectedDir, name); err != nil {
				return nil, err
			}
		}
		refs[name] = ref
	}
	for _, name := range fig12Names() {
		o, err := runPipeline(named(name), cfg, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", name, err)
		}
		if err := compareOutput(o.output, refs[name].want); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", name, err)
		}
	}
	return refs, nil
}

// batchLimitMS is the latency limit of one program run in goodput_rps.
const batchLimitMS = 5000

// minPasses is the fewest passes an untraced run makes, whatever --seconds
// is, so that the latency tail (the 11th slowest run) falls among the runs of
// the slowest program; each half of a traced run makes at least
// minTracedPasses.
const (
	minPasses       = 10
	minTracedPasses = 2
)

// passResult is one pass over the ten programs in a seeded order.
type passResult struct {
	order  []string
	ns     int64
	counts counters
	lat    []float64 // per-program host ms
	good   int       // correct runs within the limit
}

// runPass runs every program once in order, checking each output.
func runPass(order []string, cfg runConfig, refs map[string]batchRef, tr *tracer, reqBase int32, fails *failures, slowdown map[string]float64) passResult {
	pr := passResult{order: order}
	start := time.Now()
	for i, name := range order {
		o, err := runPipeline(named(name), cfg, tr, reqBase+int32(i))
		ms := float64(o.hostNS) / 1e6
		if err == nil {
			err = compareOutput(o.output, refs[name].want)
		}
		if err != nil {
			fails.add(name, cfg.String(), err)
		} else if ms <= batchLimitMS {
			pr.good++
		}
		pr.lat = append(pr.lat, ms)
		pr.counts.add(o.counts)
		if _, ok := slowdown[name]; !ok && err == nil {
			slowdown[name] = float64(o.counts.virtCycles) / float64(refs[name].nativeCycles)
		}
	}
	pr.ns = time.Since(start).Nanoseconds()
	return pr
}

// runBatch is the fig12_mpfr and fig12_vanilla workload.
func runBatch(cfg runConfig, o options) (*outcome, error) {
	cal := newCalibrator()
	var setups []float64
	var refs map[string]batchRef
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		r, err := batchSetup(cfg, o.expectedDir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		refs = r
		cal.sample()
	}

	fails := &failures{seed: o.seed}
	rng := rand.New(rand.NewSource(o.seed))
	names := fig12Names()
	slowdown := map[string]float64{}
	var passes, traced []passResult
	var tr *tracer
	untracedS, least := o.seconds, minPasses
	if o.trace {
		untracedS, least = o.seconds/2, minTracedPasses
	}
	goBefore := readGo()
	deadline := time.Now().Add(time.Duration(untracedS * float64(time.Second)))
	for len(passes) < least || time.Now().Before(deadline) {
		cal.sample()
		passes = append(passes, runPass(shuffled(rng, names), cfg, refs, nil, 0, fails, slowdown))
	}
	goAfter := readGo()
	if o.trace {
		tr = newTracer()
		deadline = time.Now().Add(time.Duration((o.seconds - untracedS) * float64(time.Second)))
		for len(traced) < minTracedPasses || time.Now().Before(deadline) {
			reqBase := int32(len(traced)*len(names) + 1)
			traced = append(traced, runPass(shuffled(rng, names), cfg, refs, tr, reqBase, fails, slowdown))
		}
	}

	out := &outcome{attempted: (len(passes) + len(traced)) * len(names), failed: fails.n}
	rss, err := vmHWM("self")
	if err != nil {
		return nil, err
	}
	// Throughput is taken per pass and latency per program, then the median
	// is reported: host steal and other tenants slow a run in bursts, and a
	// median of many samples passes over them.
	var mips, goodput, lat, untracedNS []float64
	byProgram := map[string][]float64{}
	var insts uint64
	for _, p := range passes {
		sec := float64(p.ns) / 1e9
		mips = append(mips, float64(p.counts.instructions)/sec/1e6)
		goodput = append(goodput, float64(p.good)/sec)
		lat = append(lat, p.lat...)
		for i, name := range p.order {
			byProgram[name] = append(byProgram[name], p.lat[i])
		}
		insts += p.counts.instructions
		untracedNS = append(untracedNS, float64(p.ns))
	}
	var programMedians []float64
	for _, ms := range byProgram {
		programMedians = append(programMedians, median(ms))
	}
	tailMS, tailPct := tail(lat)
	logSum := 0.0
	for _, name := range names {
		logSum += math.Log(slowdown[name])
	}
	fmt.Printf("%s: %d passes of %d programs, %s, seed %d\n", o.workload, len(passes), len(names), cfg, o.seed)
	fmt.Printf("  error_frac %.4f (%d of %d failed)\n", ratio(float64(out.failed), float64(out.attempted)), out.failed, out.attempted)
	fmt.Printf("  latency tail is p%.2f over %d program runs (%d beyond)\n", tailPct, len(lat), tailBeyond)
	k := cal.scale()
	fmt.Printf("  host: calibration kernel %.2f ms (reference %.0f ms); raw guest_mips %.4f, latency p50 %.2f ms, tail %.2f ms, scaled by %.4f\n",
		cal.ms(), refCalibrationMS, median(mips), median(programMedians), tailMS, k)
	if !o.trace {
		out.metrics = map[string]metric{
			"guest_mips":       {median(mips) / k, "Minst/s"},
			"modeled_slowdown": {math.Exp(logSum / float64(len(names))), "x"},
			"setup_s":          {median(setups) * k, "s"},
			"peak_rss_mib":     {rss, "MiB"},
			"latency_ms_p50":   {median(programMedians) * k, "ms"},
			"latency_ms_tail":  {tailMS * k, "ms"},
			"goodput_rps":      {median(goodput) / k, "1/s"},
		}
		return out, nil
	}

	// Traced run: per-layer metrics from the traced passes, Go runtime
	// metrics from the untraced ones.
	first := traced[0].counts
	for i, p := range traced[1:] {
		if p.counts != first {
			fmt.Fprintf(os.Stderr, "warning: traced pass %d counts differ from pass 1\n", i+2)
		}
	}
	layers := tr.layers()
	var tracedNS []float64
	for _, p := range traced {
		tracedNS = append(tracedNS, float64(p.ns))
	}
	n := float64(len(traced))
	m := layerMetrics(layers, first, n)
	m["go.alloc_bytes_per_inst"] = metric{ratio(goAfter.allocBytes-goBefore.allocBytes, float64(insts)), "B"}
	m["go.gc_cpu_frac"] = metric{ratio(goAfter.gcCPU-goBefore.gcCPU, goAfter.totalCPU-goBefore.totalCPU), "share"}
	m["trace.overhead_pct"] = metric{100 * (median(tracedNS) - median(untracedNS)) / median(untracedNS), "%"}
	m["host.calibration_ms"] = metric{cal.ms(), "ms"}
	// The serving layers are not on the batch path: each run builds a new
	// machine (a fresh session), and there is no server, queue or shared
	// superblock cache.
	m["session.fresh_frac"] = metric{1, "share"}
	for _, k := range []string{"sbcache.hit_rate", "serve.queued_mean", "serve.overhead_ms",
		"serve.request_ms.named_mpfr", "serve.request_ms.named_vanilla_jit", "serve.request_ms.asm_vanilla",
		"loadgen.lag_ms_tail"} {
		m[k] = metric{0, servingUnits[k]}
	}
	out.metrics = m
	reconcile(o.workload, layers, first, n)
	fmt.Printf("  tracing overhead: traced pass %.1f ms vs untraced %.1f ms (%+.1f%%)\n",
		median(tracedNS)/1e6, median(untracedNS)/1e6, m["trace.overhead_pct"].Value)
	path, err := tr.write(traceDir, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	if err != nil {
		return nil, err
	}
	fmt.Printf("  spans written to %s\n", path)
	return out, nil
}

func shuffled(rng *rand.Rand, names []string) []string {
	out := append([]string(nil), names...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
