// Package experiments regenerates every table and figure of the FPVM
// paper's evaluation (§5) on the simulated substrate: the qualitative
// approach comparison (Figure 3), the per-trap cost breakdown (Figure 9),
// garbage collector statistics (Figure 10), MPFR cost vs precision
// (Figure 11), the whole-benchmark slowdown table (Figure 12), the Lorenz
// divergence study (Figure 13), trap delivery costs (Figure 14), the
// trap-and-patch proof-of-concept numbers of §3.2, and the §5.4 effects
// summary. Each experiment writes a plain-text table shaped like the
// paper's and returns structured results for tests and benches.
package experiments

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"time"

	"fpvm/internal/arith"
	"fpvm/internal/fpvm"
	"fpvm/internal/machine"
	"fpvm/internal/patch"
	"fpvm/internal/telemetry"
	"fpvm/internal/trap"
	"fpvm/internal/workloads"
)

// Options configures an experiment run.
type Options struct {
	// W receives the experiment's table output (required).
	W io.Writer
	// Prec is the MPFR precision in bits (default 200, as in the paper).
	Prec uint
	// Quick restricts the workload set and sizes for fast CI runs.
	Quick bool
	// Delivery selects the trap delivery model (default user signal).
	Delivery trap.Kind
	// Workers bounds the number of experiment cells run concurrently.
	// Each cell owns its machine, VM, and arena, so the simulated cycle
	// counts are identical at any setting. 0 means GOMAXPROCS; 1 is fully
	// sequential.
	Workers int
	// VM is the FPVM configuration of the virtualized runs. Each experiment
	// sets System per run (the arithmetic system its table compares), and
	// the ablation ladders (fig9, fig12, the bench records) switch
	// MaxSequenceLen and JITThreshold off for their baseline columns; the
	// zero value is the paper's configuration. MaxSequenceLen > 0 adds the
	// sequence-emulation columns and JITThreshold > 0 the trace-JIT
	// columns. Cells run concurrently, so Inject must stay nil.
	VM fpvm.Config
	// TopSites, when > 0, attaches a telemetry collector to every
	// virtualized run and exports the N hottest trap sites per workload in
	// the BenchJSON records. Telemetry is observational — the modeled cycle
	// counts are identical with it on or off.
	TopSites int
	// Sessions, when > 0, attaches a session-load record to the BenchJSON
	// document: the load harness drives this many runs through a shared
	// session pool and reports sessions/sec and tail latency.
	Sessions int
	// LoadWorkers is the load harness's concurrency (0 = its default).
	LoadWorkers int
}

func (o *Options) defaults() {
	if o.Prec == 0 {
		o.Prec = 200
	}
}

// Experiment is a runnable paper artifact.
type Experiment struct {
	ID    string // "fig9", "fig12", ...
	Title string
	Run   func(Options) error
}

// registry of all experiments in paper order.
var Registry = []Experiment{
	{"fig3", "Comparison of virtualization approaches (qualitative)", Fig3},
	{"fig9", "Average cost of virtualizing an FP instruction, with breakdown", Fig9},
	{"fig10", "Garbage collector statistics and performance", Fig10},
	{"fig11", "Performance of MPFR as a function of precision", Fig11},
	{"fig12", "Summary of benchmark slowdowns across machines", Fig12},
	{"fig13", "Lorenz system under IEEE vs FPVM-Vanilla vs FPVM-MPFR", Fig13},
	{"fig14", "User-level vs kernel-level trap delivery overhead", Fig14},
	{"patch", "Trap-and-patch proof of concept (§3.2)", PatchPoC},
	{"effects", "Changed results on chaotic systems (§5.4)", Effects},
	{"validation", "FPVM+Vanilla bit-identical to native (§5.2)", Validation},
	{"systems", "One binary under every arithmetic system (§4.3 interface breadth)", Systems},
	{"nanload", "Trap-on-NaN-load hardware extension replaces static analysis (§6.2)", NaNLoad},
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// fig9Workloads is the set of codes in the Figure 9/10 plots.
var fig9Workloads = []string{
	"miniAero/Flat Plate", "Enzo/Cosmology Sim.", "Lorenz Attractor/",
	"NAS CG/Class S", "FBench/", "Three-Body/",
}

// RunResult captures one native-vs-FPVM pair.
type RunResult struct {
	Workload     workloads.Workload
	NativeOut    string
	VirtOut      string
	Native       *machine.Machine
	Virt         *machine.Machine
	VM           *fpvm.VM
	Patched      *patch.Patched
	Telem        *telemetry.Collector // non-nil when Options.TopSites > 0
	NativeCycles uint64
	VirtCycles   uint64
	// VirtWallNs is the host wall-clock time of the virtualized run. Unlike
	// the modeled cycle counts it is machine- and load-dependent; the bench
	// gate only uses it as a coarse tripwire.
	VirtWallNs int64
}

// Slowdown returns the cycle-count slowdown factor.
func (r *RunResult) Slowdown() float64 {
	return float64(r.VirtCycles) / float64(r.NativeCycles)
}

// SlowdownOn recomputes the slowdown under a different machine cost profile
// by exchanging the trap-delivery component, which is the only
// profile-dependent term. This lets one simulation produce all three
// columns of Figure 12, as all machines execute the same dynamic trace.
func (r *RunResult) SlowdownOn(p *trap.CostProfile, k trap.Kind) float64 {
	st := r.Virt.Stats.Trap
	base := r.VirtCycles - st.TotalCycles()
	adjusted := base + st.Delivered*(p.EntryCycles(k)+p.ExitCycles(k))
	return float64(adjusted) / float64(r.NativeCycles)
}

// runPair executes a workload natively and under FPVM (with static analysis
// and patching applied first, as the hybrid design requires).
func runPair(w workloads.Workload, sys arith.System, o Options) (*RunResult, error) {
	prog, err := w.Build()
	if err != nil {
		return nil, err
	}
	var nout bytes.Buffer
	nm, err := machine.New(prog, &nout)
	if err != nil {
		return nil, err
	}
	if err := nm.Run(0); err != nil {
		return nil, fmt.Errorf("%s native: %w", w.Name, err)
	}

	vprog, err := w.Build()
	if err != nil {
		return nil, err
	}
	patched, err := patch.Apply(vprog, nil)
	if err != nil {
		return nil, fmt.Errorf("%s analysis: %w", w.Name, err)
	}
	var vout bytes.Buffer
	vm2, err := machine.New(vprog, &vout)
	if err != nil {
		return nil, err
	}
	patched.Install(vm2)
	if o.Delivery != trap.DeliverUserSignal {
		vm2.Delivery = o.Delivery
		vm2.CorrectnessDelivery = o.Delivery
	}
	var telem *telemetry.Collector
	if o.TopSites > 0 {
		telem = telemetry.NewCollector(0)
		vm2.Telem = telem
	}
	cfg := o.VM
	cfg.System = sys
	vm := fpvm.Attach(vm2, cfg)
	start := time.Now()
	if err := vm2.Run(0); err != nil {
		return nil, fmt.Errorf("%s under FPVM: %w", w.Name, err)
	}
	wall := time.Since(start)
	return &RunResult{
		Workload:     w,
		NativeOut:    nout.String(),
		VirtOut:      vout.String(),
		Native:       nm,
		Virt:         vm2,
		VM:           vm,
		Patched:      patched,
		Telem:        telem,
		NativeCycles: nm.Cycles,
		VirtCycles:   vm2.Cycles,
		VirtWallNs:   wall.Nanoseconds(),
	}, nil
}

// selectWorkloads resolves a list of registry keys.
func selectWorkloads(keys []string) ([]workloads.Workload, error) {
	var out []workloads.Workload
	for _, k := range keys {
		w, ok := workloads.Get(k)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown workload %q (have %v)",
				k, workloads.Names())
		}
		out = append(out, w)
	}
	return out, nil
}

// Validation runs every workload under FPVM+Vanilla and reports whether the
// output is identical to native execution (§5.2).
func Validation(o Options) error {
	o.defaults()
	fmt.Fprintf(o.W, "§5.2 Validation: FPVM with the Vanilla arithmetic system\n")
	fmt.Fprintf(o.W, "%-28s %-10s %8s %12s\n", "benchmark", "identical", "traps", "emulations")
	var ws []workloads.Workload
	for _, w := range workloads.All() {
		if o.Quick && w.Specifics == "Class A" {
			continue
		}
		ws = append(ws, w)
	}
	type valRow struct {
		label    string
		same     bool
		traps    uint64
		emulated uint64
	}
	rows, err := forEachCell(o.Workers, ws, func(_ int, w workloads.Workload) (valRow, error) {
		r, err := runPair(w, arith.Vanilla{}, o)
		if err != nil {
			return valRow{}, err
		}
		return valRow{
			label:    w.Name + " " + w.Specifics,
			same:     r.NativeOut == r.VirtOut,
			traps:    r.VM.Stats.Traps,
			emulated: r.VM.Stats.Emulated,
		}, nil
	})
	if err != nil {
		return err
	}
	fail := 0
	for _, r := range rows {
		if !r.same {
			fail++
		}
		fmt.Fprintf(o.W, "%-28s %-10v %8d %12d\n", r.label, r.same, r.traps, r.emulated)
	}
	if fail > 0 {
		return fmt.Errorf("validation: %d benchmarks differ under Vanilla", fail)
	}
	fmt.Fprintln(o.W, "all benchmarks bit-identical under FPVM+Vanilla")
	return nil
}

// sortedKeys returns map keys in sorted order (stable table output).
func sortedKeys[T any](m map[string]T) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runPairForTest exposes the paired runner for white-box tests and benches.
func runPairForTest(w workloads.Workload, o Options) (*RunResult, error) {
	o.defaults()
	return runPair(w, arith.NewMPFR(o.Prec), o)
}
