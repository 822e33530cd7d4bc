package oracle

import (
	"fmt"
	"io"
	"sort"

	"fpvm/internal/arith"
)

// Write renders the report as the human-readable tables the CLI prints: a
// verdict line for the Vanilla bit-exactness oracle, then a per-op
// relative-error table and a trap-coverage table for every shadow system.
func (r *Report) Write(w io.Writer) {
	fmt.Fprintf(w, "=== oracle: %s ===\n", r.Name)
	fmt.Fprintf(w, "native: %d instructions (%d FP), %d cycles\n",
		r.NativeInstructions, r.NativeFPInstructions, r.NativeCycles)

	fmt.Fprintf(w, "\n[vanilla bit-exactness]\n")
	writeVerdict(w, r.Vanilla)

	for _, sr := range r.Shadows {
		fmt.Fprintf(w, "\n[shadow: %s]\n", sr.System)
		writeShadow(w, sr)
	}
}

func writeVerdict(w io.Writer, sr *SystemReport) {
	if sr.BitIdentical() {
		fmt.Fprintf(w, "  PASS: %d instructions in lockstep, final state byte-identical\n",
			sr.LockstepInsts)
	} else {
		fmt.Fprintf(w, "  FAIL:")
		if sr.ControlDiverged {
			fmt.Fprintf(w, " control-flow diverged;")
		}
		if sr.FirstDivergencePC >= 0 {
			fmt.Fprintf(w, " first divergence at PC %#x (%s);",
				sr.FirstDivergencePC, sr.FirstDivergenceOp)
		}
		fmt.Fprintf(w, " regs=%v flags=%v mem=%v output=%v\n",
			sr.RegsIdentical, sr.FlagsIdentical, sr.MemIdentical, sr.OutputIdentical)
	}
	fmt.Fprintf(w, "  traps: %d fp, %d correctness, %d external; %d lanes emulated",
		sr.FPTraps, sr.CorrectTraps, sr.ExtTraps, sr.Emulated)
	if sr.Coalesced > 0 {
		fmt.Fprintf(w, "; %d coalesced", sr.Coalesced)
	}
	fmt.Fprintln(w)
	writeSanitize(w, sr)
}

// writeSanitize summarizes the sanitizer's report of a sanitized run.
func writeSanitize(w io.Writer, sr *SystemReport) {
	r := sr.SanitizeReport
	if r == nil {
		return
	}
	fmt.Fprintf(w, "  sanitize: %d samples over %d sites, %d flagged",
		r.Samples, len(r.Sites), r.FlaggedSites)
	if c := r.Certification; c != nil {
		fmt.Fprintf(w, "; certify: %d of %d outputs proved", c.Proved, len(c.Outputs))
	}
	fmt.Fprintln(w)
}

func writeShadow(w io.Writer, sr *SystemReport) {
	if sr.FirstDivergencePC >= 0 {
		fmt.Fprintf(w, "  first numerical divergence: PC %#x (%s)\n",
			sr.FirstDivergencePC, sr.FirstDivergenceOp)
	} else {
		fmt.Fprintf(w, "  no divergence beyond tolerance over %d lockstep instructions\n",
			sr.LockstepInsts)
	}
	fmt.Fprintf(w, "  final state vs native: regs=%v mem=%v output=%v\n",
		sr.RegsIdentical, sr.MemIdentical, sr.OutputIdentical)

	// Per-op relative error vs the lockstep IEEE trace.
	ops := make([]arith.Op, 0, len(sr.OpErrors))
	for op := range sr.OpErrors {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	if len(ops) > 0 {
		fmt.Fprintf(w, "  %-8s %10s %10s %12s %12s\n",
			"op", "lanes", "differ", "max relerr", "mean relerr")
		for _, op := range ops {
			e := sr.OpErrors[op]
			fmt.Fprintf(w, "  %-8s %10d %10d %12.3e %12.3e\n",
				op, e.Count, e.Diverse, e.Max, e.Mean())
		}
	}

	// Per-site divergence attribution: which instructions produced the
	// worst shadow-vs-IEEE errors (NSan-style sampling).
	if sites := sr.TopDivergentSites(5); len(sites) > 0 && sites[0].Max > 0 {
		fmt.Fprintf(w, "  worst-divergence sites:\n")
		fmt.Fprintf(w, "  %-8s %-10s %10s %10s %12s %12s\n",
			"pc", "op", "lanes", "differ", "max relerr", "mean relerr")
		for _, s := range sites {
			if s.Max == 0 {
				break
			}
			fmt.Fprintf(w, "  %#06x   %-10s %10d %10d %12.3e %12.3e\n",
				s.PC, s.Op, s.Count, s.Diverse, s.Max, s.Mean())
		}
	}

	// Trap coverage per §2 condition class.
	fmt.Fprintf(w, "  trap coverage: %d fp traps, %d correctness traps\n",
		sr.FPTraps, sr.CorrectTraps)
	fmt.Fprintf(w, "  %-10s %10s\n", "class", "traps")
	for _, c := range CondClasses {
		fmt.Fprintf(w, "  %-10s %10d\n", c.String(), sr.CondCover[c])
	}
	writeSanitize(w, sr)
}
