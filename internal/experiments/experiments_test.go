package experiments

import (
	"bytes"
	"strings"
	"testing"

	"fpvm/internal/arith"
	"fpvm/internal/trap"
)

func opts() Options {
	var buf bytes.Buffer
	return Options{W: &buf, Quick: true}
}

func TestFig3Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig3(Options{W: &buf}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Trap-and-emulate") {
		t.Fatal("fig3 output missing content")
	}
}

func TestFig9Shape(t *testing.T) {
	o := opts()
	o.VM.MaxSequenceLen, o.VM.JITThreshold = 16, 8
	rows, err := Fig9Data(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("fig9 rows = %d, want 6", len(rows))
	}
	var enzoCorrectness, othersMax float64
	for _, r := range rows {
		// Paper band: 12,000–24,000 cycles per virtualized instruction.
		if r.Total < 8_000 || r.Total > 40_000 {
			t.Errorf("%s: per-trap total %.0f outside plausible band", r.Name, r.Total)
		}
		// Delivery (hardware+kernel) must dominate FPVM's own runtime.
		if r.Hardware+r.Kernel < r.Decode+r.Bind+r.GC {
			t.Errorf("%s: delivery should dominate decode+bind+gc", r.Name)
		}
		// Decode must amortize to near zero via the cache.
		if r.Decode > 100 {
			t.Errorf("%s: decode %.1f cycles/trap — cache not effective", r.Name, r.Decode)
		}
		if !(r.JITTotal <= r.SeqTotal && r.SeqTotal <= r.Total) {
			t.Errorf("%s: want jitTOTAL %.0f <= seqTOTAL %.0f <= TOTAL %.0f, all per base trap", r.Name, r.JITTotal, r.SeqTotal, r.Total)
		}
		if r.Name == "Enzo" {
			enzoCorrectness = r.Correctness
		} else if r.Correctness > othersMax {
			othersMax = r.Correctness
		}
	}
	// §5.3: correctness overhead is "virtually zero except for Enzo".
	if enzoCorrectness < 10*othersMax {
		t.Errorf("Enzo correctness %.1f should dwarf others' max %.1f",
			enzoCorrectness, othersMax)
	}
}

func TestFig10Shape(t *testing.T) {
	o := opts()
	rows, err := Fig10Data(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Allocs == 0 {
			continue
		}
		if r.FreedFrac < 0.95 {
			t.Errorf("%s: GC freed fraction %.3f < 0.95 (paper: >95%%)", r.Name, r.FreedFrac)
		}
	}
}

func TestFig11Shape(t *testing.T) {
	o := opts()
	rows, err := Fig11Data(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 5 {
		t.Fatalf("too few precision points: %d", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	// Costs must grow with precision, and div must grow faster than add.
	if last.DivCycles <= first.DivCycles {
		t.Error("div cost should grow with precision")
	}
	if last.DivCycles/first.DivCycles <= last.AddCycles/first.AddCycles {
		t.Error("div should grow faster than add (quadratic vs linear)")
	}
	// At kilobit precisions the asymptotics dominate the per-op overhead:
	// div ≫ add, as in §5.3 (93 vs 2175 cycles at 200 bits in C).
	if rows[6].DivCycles < 2*rows[6].AddCycles {
		t.Errorf("div (%.0f) should be much slower than add (%.0f) at 2^11 bits",
			rows[6].DivCycles, rows[6].AddCycles)
	}
}

func TestFig12Shape(t *testing.T) {
	o := opts()
	rows, err := Fig12Data(o)
	if err != nil {
		t.Fatal(err)
	}
	sd := map[string]float64{}
	for _, r := range rows {
		key := r.Name
		if r.Specifics == "Class A" {
			key += "/Class A"
		}
		sd[key] = r.Slowdown["R815"]
	}
	// Everything slows down by orders of magnitude (paper: 204x–12,169x;
	// our sequential cost model compresses the top of the range).
	for k, v := range sd {
		if v < 50 {
			t.Errorf("%s: slowdown %.1f implausibly low", k, v)
		}
		if v > 50_000 {
			t.Errorf("%s: slowdown %.1f implausibly high", k, v)
		}
	}
	// Shape: the integer sort and the I/O-heavy Lorenz simulator form the
	// low band; the FP-dense solver/stencil codes form the high band.
	for _, low := range []string{"NAS IS", "Lorenz Attractor"} {
		for _, high := range []string{"NAS EP", "NAS CG", "NAS LU", "NAS MG", "miniAero", "Enzo"} {
			if sd[low] >= sd[high] {
				t.Errorf("%s (%.0fx) should slow down less than %s (%.0fx)",
					low, sd[low], high, sd[high])
			}
		}
	}
	if !(sd["NAS CG"] > sd["NAS IS"]*2) {
		t.Errorf("CG should dwarf IS: cg=%.0f is=%.0f", sd["NAS CG"], sd["NAS IS"])
	}
	if !(sd["NAS MG"] > sd["FBench"]) {
		t.Errorf("stencil MG (%.0fx) should exceed FBench (%.0fx)", sd["NAS MG"], sd["FBench"])
	}
}

func TestFig13Divergence(t *testing.T) {
	o := opts()
	res, err := Fig13Data(o)
	if err != nil {
		t.Fatal(err)
	}
	// Vanilla must match IEEE exactly.
	if len(res.IEEE) != len(res.Vanilla) {
		t.Fatal("sample count mismatch")
	}
	for i := range res.IEEE {
		if res.IEEE[i] != res.Vanilla[i] {
			t.Fatalf("IEEE and Vanilla differ at sample %d", i)
		}
	}
	// MPFR must diverge.
	if res.DivergenceStep < 0 {
		t.Fatal("MPFR trajectory did not diverge from IEEE")
	}
	// But not immediately (they share a starting point).
	if res.DivergenceStep == 0 {
		t.Fatal("divergence at step 0 suggests a broken emulator, not chaos")
	}
	// Final states differ.
	last := len(res.IEEE) - 1
	if res.IEEE[last] == res.MPFR[last] {
		t.Fatal("final states should differ")
	}
}

func TestFig14Shape(t *testing.T) {
	rows := Fig14Data(Options{})
	if len(rows) != 3 {
		t.Fatalf("profiles = %d", len(rows))
	}
	for _, r := range rows {
		if r.Ratio < 5 || r.Ratio > 35 {
			t.Errorf("%s: user/kernel ratio %.1f outside the paper's 7–30x band (with slack)",
				r.Machine, r.Ratio)
		}
		if r.U2UCycles >= r.KernCycles {
			t.Errorf("%s: user→user should be cheapest", r.Machine)
		}
	}
}

func TestPatchPoCShape(t *testing.T) {
	o := opts()
	r, err := PatchPoCData(o)
	if err != nil {
		t.Fatal(err)
	}
	// The §3.2 tradeoff: patch beats trap when checks fail often...
	if r.PatchCheckFail >= r.TrapAndEmulate {
		t.Errorf("patch-fail %.1f should beat trap %.1f", r.PatchCheckFail, r.TrapAndEmulate)
	}
	// ...but costs more than native when they always pass.
	if r.PatchCheckPass <= r.NativeOp {
		t.Errorf("patch-pass %.1f should cost more than native %.1f", r.PatchCheckPass, r.NativeOp)
	}
	// And the check overhead is small relative to trap delivery.
	if (r.PatchCheckPass-r.NativeOp)*10 > r.TrapAndEmulate {
		t.Errorf("check overhead %.1f too large vs trap cost %.1f",
			r.PatchCheckPass-r.NativeOp, r.TrapAndEmulate)
	}
	if r.WholePatchMode >= r.WholeTrapMode {
		t.Error("patch mode should win on all-rounding Lorenz")
	}
}

func TestEffects(t *testing.T) {
	o := opts()
	rows, err := EffectsData(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.VanillaSame {
			t.Errorf("%s: Vanilla changed the result", r.Name)
		}
		if !r.MPFRDiffers {
			t.Errorf("%s: MPFR did not change the result", r.Name)
		}
	}
}

func TestValidationExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := Validation(Options{W: &buf, Quick: true}); err != nil {
		t.Fatalf("validation failed: %v\n%s", err, buf.String())
	}
}

func TestDeliveryAblation(t *testing.T) {
	// §6: cheaper delivery should reduce Fig12 slowdowns substantially on
	// an FP-dense code.
	o := opts()
	ws, err := selectWorkloads([]string{"Lorenz Attractor/"})
	if err != nil {
		t.Fatal(err)
	}
	img, err := workloadImage(ws[0])
	if err != nil {
		t.Fatal(err)
	}
	r, err := runPair(ws[0], img, arith.NewMPFR(200), o)
	if err != nil {
		t.Fatal(err)
	}
	user := r.SlowdownOn(&trap.R815, trap.DeliverUserSignal)
	kern := r.SlowdownOn(&trap.R815, trap.DeliverKernel)
	u2u := r.SlowdownOn(&trap.R815, trap.DeliverUserToUser)
	if !(user > kern && kern > u2u) {
		t.Fatalf("slowdowns not ordered: user=%.0f kern=%.0f u2u=%.0f", user, kern, u2u)
	}
}

// TestAllExperimentsRunEndToEnd drives every registered experiment through
// its full printing path, exactly as cmd/fpvm-bench does.
func TestAllExperimentsRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	for _, e := range Registry {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(Options{W: &buf, Quick: true}); err != nil {
				t.Fatalf("%s: %v\n%s", e.ID, err, buf.String())
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
		})
	}
	// Lookup fails for unknown ids.
	if _, ok := Lookup("not-an-experiment"); ok {
		t.Error("Lookup should fail for unknown id")
	}
	if e, ok := Lookup("fig12"); !ok || e.ID != "fig12" {
		t.Error("Lookup(fig12)")
	}
}

// TestNaNLoadEquivalence: the §6.2 hardware extension must reproduce native
// output without any static analysis, where the unpatched run cannot.
func TestNaNLoadEquivalence(t *testing.T) {
	r, err := NaNLoadData(opts())
	if err != nil {
		t.Fatal(err)
	}
	if r.UnpatchedOut == r.NativeOut {
		t.Error("unpatched Enzo should corrupt output (no hole exercised?)")
	}
	if r.PatchedOut != r.NativeOut {
		t.Error("VSA-patched run must match native")
	}
	if r.HWOut != r.NativeOut {
		t.Error("trap-on-NaN-load run must match native")
	}
	if r.HWCorrTraps == 0 {
		t.Error("hardware mode recorded no traps")
	}
	// The hardware check fires only on actual NaN loads (phase A), while
	// the conservative static patch fires in both phases.
	if r.HWCorrTraps >= r.PatchedCorrTraps {
		t.Errorf("hardware traps %d should be fewer than patched traps %d",
			r.HWCorrTraps, r.PatchedCorrTraps)
	}
	if r.HWCycles >= r.PatchedCycles {
		t.Errorf("hardware mode (%d cycles) should beat static patching (%d)",
			r.HWCycles, r.PatchedCycles)
	}
}

// TestSeqEmuAblation is the acceptance gate for sequence emulation: with
// coalescing on, at least one Figure 12 workload must deliver >=25% fewer
// FP traps and run in measurably fewer modeled cycles than the classic
// one-trap-one-instruction pipeline.
func TestSeqEmuAblation(t *testing.T) {
	o := opts()
	o.VM.MaxSequenceLen = 16
	rows, err := Fig12Data(o)
	if err != nil {
		t.Fatal(err)
	}
	bestDrop := 0.0
	cyclesFell := false
	for _, r := range rows {
		if r.Traps == 0 {
			continue
		}
		if r.SeqTraps > r.Traps {
			t.Errorf("%s: coalescing increased traps %d -> %d", r.Name, r.Traps, r.SeqTraps)
		}
		drop := 1 - float64(r.SeqTraps)/float64(r.Traps)
		if drop > bestDrop {
			bestDrop = drop
		}
		if r.SeqSlowdown > 0 && r.SeqSlowdown < r.Slowdown["R815"] {
			cyclesFell = true
		}
	}
	if bestDrop < 0.25 {
		t.Fatalf("best trap drop %.1f%% < 25%%", 100*bestDrop)
	}
	if !cyclesFell {
		t.Fatal("no workload showed a modeled-cycle reduction under coalescing")
	}
}
