package experiments

import (
	"fmt"

	"fpvm/internal/trap"
	"fpvm/internal/workloads"
)

// Fig12Row is one benchmark's slowdown on the three machine profiles.
type Fig12Row struct {
	Name      string
	Specifics string
	Slowdown  map[string]float64 // profile name → slowdown factor
	Traps     uint64
	FPFrac    float64 // dynamic FP instruction fraction (native)

	// Sequence-emulation ablation, populated when Options.VM.MaxSequenceLen > 0:
	// the same benchmark with trap coalescing on. The main columns always
	// describe the classic pipeline, so the pair is a direct on/off ablation.
	SeqTraps    uint64  // FP traps with coalescing on
	SeqSlowdown float64 // R815 slowdown with coalescing on

	// Trace-JIT ablation, populated when Options.VM.JITThreshold > 0: the same
	// benchmark with the superblock tier on (stacked on coalescing when
	// MaxSequenceLen > 0).
	JITTraps    uint64  // residual warm-up deliveries with the JIT tier on
	SBHits      uint64  // zero-delivery superblock entries served
	JITSlowdown float64 // R815 slowdown with the JIT tier on
}

// fig12Workloads mirrors the paper's Figure 12 row set. As in the paper,
// the larger configurations (miniAero, CG Class A, Enzo) are run only on
// the primary R815 profile.
var fig12OnlyR815 = map[string]bool{
	"miniAero": true, "Enzo": true,
}

// Fig12Data runs every benchmark natively and under FPVM+MPFR and computes
// cycle-count slowdowns for the three machine profiles. One simulation per
// benchmark suffices: the dynamic trace is machine-independent and only the
// trap delivery cost varies across profiles (see RunResult.SlowdownOn).
func Fig12Data(o Options) ([]Fig12Row, error) {
	o.defaults()
	return forEachWorkload(o.Workers, allFig12(o), func(w workloads.Workload, img *cellImage) (Fig12Row, error) {
		l, err := runLadder(w, img, o)
		if err != nil {
			return Fig12Row{}, err
		}
		r := l.base
		row := Fig12Row{
			Name:      w.Name,
			Specifics: w.Specifics,
			Slowdown:  map[string]float64{},
			Traps:     r.VM.Stats.Traps,
			FPFrac:    float64(r.Native.Stats.FPInstructions) / float64(r.Native.Stats.Instructions),
		}
		for _, p := range trap.Profiles() {
			if p.Name != "R815" && (fig12OnlyR815[w.Name] || w.Specifics == "Class A") {
				continue
			}
			row.Slowdown[p.Name] = r.SlowdownOn(p, trap.DeliverUserSignal)
		}
		if sr := l.seq; sr != nil {
			row.SeqTraps = sr.VM.Stats.Traps
			row.SeqSlowdown = sr.SlowdownOn(&trap.R815, trap.DeliverUserSignal)
		}
		if jr := l.jit; jr != nil {
			row.JITTraps = jr.VM.Stats.Traps
			row.SBHits = jr.Virt.Stats.SBHits
			row.JITSlowdown = jr.SlowdownOn(&trap.R815, trap.DeliverUserSignal)
		}
		return row, nil
	})
}

func allFig12(o Options) []workloads.Workload {
	var out []workloads.Workload
	for _, w := range workloads.All() {
		if o.Quick && (w.Specifics == "Class A") {
			continue
		}
		out = append(out, w)
	}
	return out
}

// Fig12 prints the benchmark slowdown summary (paper Figure 12: 204× for
// IS up to ~12,000× for CG, similar across the three machines).
func Fig12(o Options) error {
	o.defaults()
	rows, err := Fig12Data(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.W, "Figure 12: Summary of benchmark slowdowns (FPVM + MPFR %d-bit)\n", o.Prec)
	seq := o.VM.MaxSequenceLen > 0
	jit := o.VM.JITThreshold > 0
	hdr := "%-18s %-14s %10s %10s %10s %9s %7s"
	args := []any{"benchmark", "specifics", "R815", "7220", "R730xd", "traps", "fp%"}
	if seq {
		hdr += " | %9s %8s %10s"
		args = append(args, "seqtraps", "Δtraps", "seqR815")
	}
	if jit {
		hdr += " | %9s %9s %10s"
		args = append(args, "jittraps", "sbhits", "jitR815")
	}
	fmt.Fprintf(o.W, hdr+"\n", args...)
	for _, r := range rows {
		cell := func(p string) string {
			if v, ok := r.Slowdown[p]; ok {
				return fmt.Sprintf("%9.0fx", v)
			}
			return fmt.Sprintf("%10s", "—")
		}
		fmt.Fprintf(o.W, "%-18s %-14s %s %s %s %9d %6.1f%%",
			r.Name, r.Specifics, cell("R815"), cell("7220"), cell("R730xd"),
			r.Traps, 100*r.FPFrac)
		if seq {
			drop := 0.0
			if r.Traps > 0 {
				drop = 100 * (1 - float64(r.SeqTraps)/float64(r.Traps))
			}
			fmt.Fprintf(o.W, " | %9d %7.1f%% %9.0fx", r.SeqTraps, drop, r.SeqSlowdown)
		}
		if jit {
			fmt.Fprintf(o.W, " | %9d %9d %9.1fx", r.JITTraps, r.SBHits, r.JITSlowdown)
		}
		fmt.Fprintln(o.W)
	}
	fmt.Fprintln(o.W, "\nSlowdowns are deterministic cycle-count ratios; the dynamic FP fraction and")
	fmt.Fprintln(o.W, "per-op emulation cost drive the spread, as in the paper (IS lowest, CG/LU/MG highest).")
	if seq {
		fmt.Fprintf(o.W, "Sequence emulation (first |): MaxSequenceLen=%d; Δtraps is the delivery\n", o.VM.MaxSequenceLen)
		fmt.Fprintln(o.W, "reduction from coalescing straight-line FP runs into one trap each.")
	}
	if jit {
		fmt.Fprintf(o.W, "Trace JIT: JITThreshold=%d; hot sites compile into superblocks that\n", o.VM.JITThreshold)
		fmt.Fprintln(o.W, "re-enter with zero delivery/decode/bind, leaving only warm-up traps behind.")
	}
	return nil
}
