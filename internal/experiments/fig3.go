package experiments

import "fmt"

// Fig3 prints the paper's qualitative comparison of the four approaches to
// floating point virtualization (Figure 3). It is reproduced verbatim — the
// table is analytic, not measured — so readers of the harness output can
// situate the measured experiments.
func Fig3(o Options) error {
	o.defaults()
	rows := [][5]string{
		{"Aspect", "Trap-and-emulate", "Trap-and-patch", "Static analysis/transform", "Compiler-based transform"},
		{"Code supported", "all (any process)", "all (any process)", "complete binaries available statically", "complete IR/source available statically"},
		{"User requirements", "none", "none", "must provide all binary code before use", "must provide all IR or source before use"},
		{"HW requirements", "fully virtualizable FP (or selective patch)", "fully virtualizable FP (or selective patch)", "none", "none"},
		{"Static costs", "none", "none", "huge", "large"},
		{"Run-time overhead (no alt arith)", "none", "low", "low", "low (< binary approaches)"},
		{"Run-time overhead (alt arith)", "high (OS+HW dependent, §6)", "low", "low", "low (< binary approaches)"},
		{"Hardware-independent", "no", "no", "no", "yes"},
		{"Major SE focus", "RT/OS", "RT/OS/JIT", "binary analysis/transform tool", "compiler"},
	}
	fmt.Fprintln(o.W, "Figure 3: Comparison of the approaches (qualitative, from the paper)")
	for _, r := range rows {
		fmt.Fprintf(o.W, "%-34s | %-28s | %-28s | %-38s | %s\n", r[0], r[1], r[2], r[3], r[4])
	}
	fmt.Fprintln(o.W, "\nThis repository implements trap-and-emulate (internal/fpvm), trap-and-patch")
	fmt.Fprintln(o.W, "(VM.PatchAllFPArith), and the static-analysis hybrid (internal/vsa + internal/patch).")
	return nil
}
