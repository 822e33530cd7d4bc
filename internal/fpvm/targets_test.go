package fpvm_test

import (
	"bytes"
	"testing"

	"fpvm/internal/arith"
	"fpvm/internal/asm"
	"fpvm/internal/fpvm"
	"fpvm/internal/isa"
	"fpvm/internal/machine"
	"fpvm/internal/oracle"
	"fpvm/internal/patch"
	"fpvm/internal/posit"
	"fpvm/internal/sanitize"
)

// modeRun is the harvest of one virtualized run compared between trap mode
// and patch mode.
type modeRun struct {
	out     string
	stats   fpvm.Stats // cycle fields zeroed: the modes differ in cost only
	cycles  uint64
	patches uint64            // patch-site dispatches
	sites   map[uint64]uint64 // sanitizer samples per PC (sanitized runs)
}

// runMode runs img under FPVM with cfg, as fpvm-run does: correctness sites
// installed, then the VM, then (patchMode) a patch on every FP arithmetic
// site.
func runMode(t *testing.T, img *machine.Image, cfg fpvm.Config, patchMode bool) modeRun {
	t.Helper()
	var out bytes.Buffer
	m, err := machine.NewFromImage(img, &out, 0)
	if err != nil {
		t.Fatal(err)
	}
	m.InstallSites()
	vm := fpvm.Attach(m, cfg)
	if patchMode {
		vm.PatchAllFPArith()
	}
	if err := m.Run(oracle.DefaultMaxInst); err != nil {
		t.Fatalf("patchMode=%v: %v", patchMode, err)
	}
	r := modeRun{out: out.String(), stats: vm.Stats, cycles: m.Cycles, patches: m.Stats.PatchInvokes}
	r.stats.Cycles = fpvm.CycleBreakdown{}
	r.stats.GC.LastCycles, r.stats.GC.LastWall = 0, 0
	if cfg.Sanitize != nil {
		rep := vm.Sanitizer().Snapshot()
		r.sites = make(map[uint64]uint64, len(rep.Sites))
		for _, s := range rep.Sites {
			r.sites[s.PC] += s.Samples
		}
	}
	return r
}

// divideSrc is a one-division program whose quotient rounds: the smallest
// input on which an alternative system's output differs from IEEE.
const divideSrc = `
	movsd f0, =1.0
	movsd f1, =3.0
	divsd f0, f1
	outf f0
	halt
`

// TestPatchModeMatchesTrapMode runs every oracle target, plus divideSrc, in
// both §3 modes: trap-and-patch is trap-and-emulate without the delivery, so
// the guest output and every non-cycle VM counter must be equal, and with
// the sanitizer armed each emulated instruction must be attributed to its
// own PC exactly as in trap mode. Each pair runs twice: with no trace tier,
// and with sequence emulation and the JIT armed (the "+seq16jit8" rows),
// where a patched site that would trap enters traces exactly as a delivered
// trap does. Vanilla runs sanitized; MPFR-200 and posit32 check output and
// counters and are skipped under -short. On Lorenz, where nearly every FP op
// rounds, patch mode must also be cheaper than trap mode (§3.2).
func TestPatchModeMatchesTrapMode(t *testing.T) {
	systems := []struct {
		name      string
		sys       func() arith.System
		sanitized bool
	}{
		{"vanilla", func() arith.System { return arith.Vanilla{} }, true},
		{"mpfr200", func() arith.System { return arith.NewMPFR(200) }, false},
		{"posit32", func() arith.System { return arith.NewPosit(posit.Posit32) }, false},
	}
	targets := append(oracle.AllTargets(), oracle.Target{
		Name:  "divide",
		Build: func() (*isa.Program, error) { return asm.Assemble(divideSrc) },
	})
	// Lorenz carries the cycle check; fail loudly if the name ever changes.
	const lorenz = "workload:Lorenz Attractor"
	if _, err := oracle.Lookup(lorenz); err != nil {
		t.Fatal(err)
	}
	tiers := []struct {
		suffix string
		seqLen int
		jit    int
	}{{"", 0, 0}, {"+seq16jit8", 16, 8}}
	for _, tgt := range targets {
		prog, err := tgt.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", tgt.Name, err)
		}
		img, err := patch.NewImage(prog)
		if err != nil {
			t.Fatalf("%s: analysis: %v", tgt.Name, err)
		}
		for _, s := range systems {
			for _, tier := range tiers {
				t.Run(tgt.Name+"/"+s.name+tier.suffix, func(t *testing.T) {
					if testing.Short() && !s.sanitized {
						t.Skip("MPFR-200 and posit32 rows run without -short")
					}
					cfg := func() fpvm.Config {
						c := fpvm.Config{System: s.sys(), MaxSequenceLen: tier.seqLen, JITThreshold: tier.jit}
						if s.sanitized {
							c.Sanitize = &sanitize.Options{}
						}
						return c
					}
					trapRun := runMode(t, img, cfg(), false)
					patchRun := runMode(t, img, cfg(), true)
					if patchRun.patches == 0 {
						t.Fatal("patch mode dispatched no patch site")
					}
					if patchRun.out != trapRun.out {
						t.Fatalf("output differs:\npatch: %q\ntrap:  %q", patchRun.out, trapRun.out)
					}
					if tgt.Name == "divide" && s.name == "mpfr200" && len(patchRun.out) < 20 {
						t.Errorf("patched MPFR-200 run printed %q, want a high-precision quotient", patchRun.out)
					}
					if patchRun.stats != trapRun.stats {
						t.Errorf("VM stats differ:\npatch: %+v\ntrap:  %+v", patchRun.stats, trapRun.stats)
					}
					if s.sanitized {
						if len(patchRun.sites) != len(trapRun.sites) {
							t.Errorf("sanitizer sites: patch %d, trap %d", len(patchRun.sites), len(trapRun.sites))
						}
						for pc, n := range trapRun.sites {
							if patchRun.sites[pc] != n {
								t.Errorf("sanitizer site %#x: patch %d samples, trap %d", pc, patchRun.sites[pc], n)
							}
						}
					}
					if tgt.Name == lorenz && patchRun.cycles >= trapRun.cycles {
						t.Errorf("patch mode (%d cycles) should beat trap mode (%d)", patchRun.cycles, trapRun.cycles)
					}
				})
			}
		}
	}
}

// TestSpyTransparent: FPSpy must observe events without changing a single
// output bit — its defining property ("allowing it to be executed as
// normal") — and must retire every event it records.
func TestSpyTransparent(t *testing.T) {
	for _, tgt := range oracle.AllTargets() {
		t.Run(tgt.Name, func(t *testing.T) {
			prog, err := tgt.Build()
			if err != nil {
				t.Fatal(err)
			}
			var nativeOut bytes.Buffer
			nm, err := machine.New(prog, &nativeOut)
			if err != nil {
				t.Fatal(err)
			}
			if err := nm.Run(oracle.DefaultMaxInst); err != nil {
				t.Fatal(err)
			}

			var spyOut bytes.Buffer
			sm, err := machine.New(prog, &spyOut)
			if err != nil {
				t.Fatal(err)
			}
			spy := fpvm.AttachSpy(sm)
			if err := sm.Run(oracle.DefaultMaxInst); err != nil {
				t.Fatal(err)
			}
			if nativeOut.String() != spyOut.String() {
				t.Fatalf("FPSpy changed output:\nspy:    %q\nnative: %q", spyOut.String(), nativeOut.String())
			}
			if spy.Stats.Events == 0 {
				t.Fatal("no events recorded")
			}
			if spy.Stats.Executed != spy.Stats.Events {
				t.Fatalf("executed %d != events %d", spy.Stats.Executed, spy.Stats.Events)
			}
		})
	}
}
