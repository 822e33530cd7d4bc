package experiments

import (
	"fmt"

	"fpvm/internal/trap"
	"fpvm/internal/workloads"
)

// Fig9Row is the measured per-trap cost breakdown for one benchmark.
type Fig9Row struct {
	Name        string
	Traps       uint64
	Hardware    float64 // cycles per trap attributed to HW fault entry/exit
	Kernel      float64 // kernel dispatch + signal frame
	Decode      float64
	Bind        float64
	Emulate     float64
	GC          float64
	Correctness float64 // amortized correctness-trap cost per FP trap
	Total       float64

	// Sequence-emulation ablation, populated when Options.VM.MaxSequenceLen > 0.
	// The main columns always describe the classic one-trap-one-instruction
	// pipeline; these describe the same benchmark with coalescing on.
	SeqTraps   uint64  // FP traps with coalescing on
	SeqTotal   float64 // virtualization cycles with coalescing on, per base trap
	MeanSeqLen float64 // mean instructions retired per delivery

	// Trace-JIT ablation, populated when Options.VM.JITThreshold > 0: the same
	// benchmark with the superblock tier on (stacked on coalescing when
	// MaxSequenceLen > 0). JITTraps counts the residual deliveries — those
	// before each hot site crossed the compile threshold — and SBHits the
	// zero-delivery superblock entries that replaced the rest.
	JITTraps uint64
	SBHits   uint64
	JITTotal float64 // virtualization cycles with the JIT tier on, per base trap
}

// fig9Row computes the per-trap breakdown from one finished run.
func fig9Row(name string, r *RunResult) *Fig9Row {
	st := r.VM.Stats
	traps := st.Traps
	if traps == 0 {
		return nil
	}
	profile := r.Virt.Profile
	hw, kern := profile.Breakdown()
	// Delivery components scale with every delivered trap (FP +
	// correctness); report per FP trap as the paper does.
	delivered := r.Virt.Stats.Trap.Delivered
	corrCycles := st.Cycles.Correctness +
		(delivered-traps)*(profile.EntryCycles(trap.DeliverUserSignal)+profile.ExitCycles(trap.DeliverUserSignal))
	row := &Fig9Row{
		Name:        name,
		Traps:       traps,
		Hardware:    float64(hw),
		Kernel:      float64(kern),
		Decode:      float64(st.Cycles.Decode) / float64(traps),
		Bind:        float64(st.Cycles.Bind) / float64(traps),
		Emulate:     float64(st.Cycles.Emulate) / float64(traps),
		GC:          float64(st.Cycles.GC) / float64(traps),
		Correctness: float64(corrCycles) / float64(traps),
	}
	row.Total = row.Hardware + row.Kernel + row.Decode + row.Bind +
		row.Emulate + row.GC + row.Correctness
	return row
}

// Fig9Data computes the Figure 9 breakdown for the paper's six codes using
// MPFR at o.Prec bits (200 in the paper). With Options.VM.MaxSequenceLen > 0 it
// additionally runs each code with sequence emulation on and fills the
// ablation columns.
func Fig9Data(o Options) ([]Fig9Row, error) {
	o.defaults()
	ws, err := selectWorkloads(fig9Workloads)
	if err != nil {
		return nil, err
	}
	cells, err := forEachCell(o.Workers, ws, func(_ int, w workloads.Workload) (*Fig9Row, error) {
		l, err := runLadder(w, o)
		if err != nil {
			return nil, err
		}
		row := fig9Row(w.Name, l.base)
		if row == nil {
			return row, nil
		}
		// A tier rung's per-trap total times its own traps is its whole
		// virtualization bill; dividing it by the base rung's traps puts
		// every rung on the one denominator, so a better tier reads lower.
		perBaseTrap := func(r *Fig9Row) float64 { return r.Total * float64(r.Traps) / float64(row.Traps) }
		if l.seq != nil {
			if srow := fig9Row(w.Name, l.seq); srow != nil {
				st := l.seq.VM.Stats
				row.SeqTraps = srow.Traps
				row.SeqTotal = perBaseTrap(srow)
				row.MeanSeqLen = float64(st.Traps+st.Coalesced) / float64(st.Traps)
			}
		}
		if l.jit != nil {
			if jrow := fig9Row(w.Name, l.jit); jrow != nil {
				row.JITTraps = jrow.Traps
				row.JITTotal = perBaseTrap(jrow)
				row.SBHits = l.jit.Virt.Stats.SBHits
			}
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []Fig9Row
	for _, c := range cells {
		if c != nil {
			rows = append(rows, *c)
		}
	}
	return rows, nil
}

// Fig9 prints the average cost of virtualizing a floating point instruction
// and its breakdown into constituent parts (paper Figure 9: 12,000–24,000
// cycles dominated by kernel and hardware delivery plus MPFR emulation).
func Fig9(o Options) error {
	o.defaults()
	rows, err := Fig9Data(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.W, "Figure 9: Average cost of virtualizing an FP instruction (cycles/trap, MPFR %d-bit)\n", o.Prec)
	seq := o.VM.MaxSequenceLen > 0
	jit := o.VM.JITThreshold > 0
	hdr := "%-18s %9s %9s %9s %7s %7s %9s %7s %11s %9s"
	args := []any{"benchmark", "traps", "hardware", "kernel",
		"decode", "bind", "emulate", "gc", "correctness", "TOTAL"}
	if seq {
		hdr += " | %9s %9s %7s"
		args = append(args, "seqtraps", "seqTOTAL", "len")
	}
	if jit {
		hdr += " | %9s %9s %9s"
		args = append(args, "jittraps", "sbhits", "jitTOTAL")
	}
	fmt.Fprintf(o.W, hdr+"\n", args...)
	for _, r := range rows {
		fmt.Fprintf(o.W, "%-18s %9d %9.0f %9.0f %7.1f %7.1f %9.0f %7.1f %11.1f %9.0f",
			r.Name, r.Traps, r.Hardware, r.Kernel, r.Decode, r.Bind,
			r.Emulate, r.GC, r.Correctness, r.Total)
		if seq {
			fmt.Fprintf(o.W, " | %9d %9.0f %7.2f", r.SeqTraps, r.SeqTotal, r.MeanSeqLen)
		}
		if jit {
			fmt.Fprintf(o.W, " | %9d %9d %9.0f", r.JITTraps, r.SBHits, r.JITTotal)
		}
		fmt.Fprintln(o.W)
	}
	fmt.Fprintln(o.W, "\nNote: decode amortizes to near zero through the decode cache (hit rate ~100%);")
	fmt.Fprintln(o.W, "correctness cost is significant only for Enzo, whose interleaved structs defeat VSA (§5.3).")
	if seq || jit {
		fmt.Fprintln(o.W, "seqTOTAL and jitTOTAL are each tier's whole virtualization cost divided by the")
		fmt.Fprintln(o.W, "base traps (the traps column), so all three totals share one denominator.")
	}
	if seq {
		fmt.Fprintf(o.W, "Sequence emulation (first |): MaxSequenceLen=%d; len is the mean run per delivery.\n", o.VM.MaxSequenceLen)
	}
	if jit {
		fmt.Fprintf(o.W, "Trace JIT: JITThreshold=%d; jittraps are the residual warm-up deliveries,\n", o.VM.JITThreshold)
		fmt.Fprintln(o.W, "sbhits the zero-delivery superblock entries that replaced the rest.")
	}
	return nil
}
