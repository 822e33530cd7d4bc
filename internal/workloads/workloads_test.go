package workloads

import (
	"bytes"
	"strings"
	"testing"

	"fpvm/internal/arith"
	"fpvm/internal/fpvm"
	"fpvm/internal/machine"
)

// runNative executes a workload natively and returns its output and machine.
func runNative(t *testing.T, w Workload) (string, *machine.Machine) {
	t.Helper()
	prog, err := w.Build()
	if err != nil {
		t.Fatalf("%s: build: %v", w.Name, err)
	}
	var out bytes.Buffer
	m, err := machine.New(prog, &out)
	if err != nil {
		t.Fatalf("%s: load: %v", w.Name, err)
	}
	if err := m.Run(200_000_000); err != nil {
		t.Fatalf("%s: run: %v", w.Name, err)
	}
	return out.String(), m
}

// TestAllWorkloadsRunNative checks every workload assembles, runs to halt,
// and produces deterministic, plausible output.
func TestAllWorkloadsRunNative(t *testing.T) {
	ws := All()
	if len(ws) < 11 {
		t.Fatalf("expected >= 11 workloads (Figure 12 rows), got %d", len(ws))
	}
	for _, w := range ws {
		w := w
		t.Run(w.Name+"/"+w.Specifics, func(t *testing.T) {
			out1, m := runNative(t, w)
			if out1 == "" {
				t.Fatal("no output")
			}
			if strings.Contains(out1, "NaN") || strings.Contains(out1, "nan") {
				t.Fatalf("workload produced NaN: %q", out1)
			}
			if m.Stats.Instructions == 0 {
				t.Fatal("no instructions executed")
			}
			// Determinism.
			out2, _ := runNative(t, w)
			if out1 != out2 {
				t.Fatal("output not deterministic")
			}
		})
	}
}

// TestWorkloadFPProfile sanity-checks each workload's arithmetic character:
// IS is integer-dominated, CG/LU are FP-dense.
func TestWorkloadFPProfile(t *testing.T) {
	frac := func(key string) float64 {
		w, ok := Get(key)
		if !ok {
			t.Fatalf("missing workload %s", key)
		}
		_, m := runNative(t, w)
		return float64(m.Stats.FPInstructions) / float64(m.Stats.Instructions)
	}
	is := frac("NAS IS/Class S")
	cg := frac("NAS CG/Class S")
	lu := frac("NAS LU/Class S")
	fb := frac("FBench/")
	if is > 0.05 {
		t.Errorf("IS should be integer-dominated: FP frac %.3f", is)
	}
	if cg < 0.15 {
		t.Errorf("CG should be FP-dense: FP frac %.3f", cg)
	}
	if lu < 0.10 {
		t.Errorf("LU should be FP-dense: FP frac %.3f", lu)
	}
	if fb < 0.2 {
		t.Errorf("FBench should be FP-dense: FP frac %.3f", fb)
	}
}

// TestWorkloadsUnderVanillaFPVM is the §5.2 validation matrix: every
// workload must produce bit-identical output under FPVM+Vanilla.
func TestWorkloadsUnderVanillaFPVM(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name+"/"+w.Specifics, func(t *testing.T) {
			if testing.Short() && (w.Name == "NAS CG" && w.Specifics == "Class A") {
				t.Skip("short mode")
			}
			native, _ := runNative(t, w)

			prog, err := w.Build()
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			m, err := machine.New(prog, &out)
			if err != nil {
				t.Fatal(err)
			}
			vm := fpvm.Attach(m, fpvm.Config{System: arith.Vanilla{}})
			if err := m.Run(0); err != nil {
				t.Fatalf("FPVM run: %v", err)
			}
			if out.String() != native {
				t.Fatalf("output mismatch under FPVM+Vanilla:\nnative: %q\nfpvm:   %q",
					native, out.String())
			}
			if w.Name != "NAS IS" && vm.Stats.Traps == 0 {
				t.Error("no FP traps recorded")
			}
		})
	}
}

// TestCGSourceDeterministic guards the NAS CG input against map iteration
// order: every call, in any process, must generate the same program text.
func TestCGSourceDeterministic(t *testing.T) {
	want := cgSource(200, 8, 15, 12345)
	for i := 0; i < 20; i++ {
		if got := cgSource(200, 8, 15, 12345); got != want {
			t.Fatalf("cgSource call %d generated different text", i+2)
		}
	}
}
