package workloads

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sort"
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

// sourceDigests are the SHA-256 digests of every workload's assembly text,
// by the short name its registration gives buildSrc. A change to how the
// text is generated must leave every digest as it is.
var sourceDigests = map[string]string{
	"cg.A":      "04d8fc4af23ba2c48209810e933ab110359e26cf5d01d2beb5281eb4c61978eb",
	"cg.S":      "17bb28b06d7938cb008877ce7cdd6eb2d98804ea09707fbb03c0e5c9128807b0",
	"enzo":      "788b7a8260dcf8769785d33bf29a3e1d9018da376fe0f28458192a52f6eef25c",
	"ep.S":      "f207a622812ceee921166e5a942b622627f31612477acc24c9151ac5cbb864e5",
	"fbench":    "2fb790199353248b7cabce60e1c8db7c7ac270f7c91deb8d0877cd9e4dd09880",
	"is.S":      "d5377f42d60c8718aee6e625e7f342368d5b1cb83a4ba21dc412542000afe183",
	"lorenz":    "29515c0239b38fd45bd088ce61e237d0e70a5d97f14b363a71bc1801e4d1fd75",
	"lu.S":      "f32bad9b7d2a5b91fecb1511742317f17fd2c9317a380496a49a875ca40f3129",
	"mg.S":      "19ff3c6433b30270faa7c3fb0e35c84a119f12f4da18cb07c8a92adaf17312c0",
	"miniaero":  "31682d6ac7c31fee5f2d72164a1b19d72f8918557ff4c0428cdb310378ff9236",
	"threebody": "ccb73d077508583f2ad740d75a53a6ea7ac6ca45786fb810f47bbebb5247d26c",
}

// TestSourceDigests pins the assembly text of every registered workload.
func TestSourceDigests(t *testing.T) {
	if len(sources) != len(registry) {
		t.Errorf("%d workload sources for %d registered workloads", len(sources), len(registry))
	}
	names := make([]string, 0, len(sources))
	for name := range sources {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		got := fmt.Sprintf("%x", sha256.Sum256([]byte(sources[name])))
		if want := sourceDigests[name]; got != want {
			t.Errorf("%s: source text digest %s, want %s", name, got, want)
		}
	}
}
