// Tests of the public package surface: construction, config validation, and
// a smoke run of every arithmetic system a downstream user can select.
package fpvm_test

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"fpvm"
	"fpvm/internal/asm"
)

const apiProg = `
	movsd f0, =0.1
	movsd f1, =0.2
	movsd f2, =0.0
	mov   r0, $0
loop:
	addsd f2, f0
	mulsd f1, f0
	divsd f1, f0
	add   r0, $1
	cmp   r0, $100
	jl    loop
	outf  f2
	halt
`

func buildAPIProg(t *testing.T) *fpvm.Program {
	t.Helper()
	prog, err := asm.Assemble(apiProg)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestNewMachine(t *testing.T) {
	var out bytes.Buffer
	m, err := fpvm.NewMachine(buildAPIProg(t), &out)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if m.Cycles == 0 || m.Stats.Instructions == 0 {
		t.Errorf("native run recorded no work: cycles=%d insts=%d",
			m.Cycles, m.Stats.Instructions)
	}
	if out.Len() == 0 {
		t.Error("program produced no output")
	}
}

func TestAttachRequiresSystem(t *testing.T) {
	m, err := fpvm.NewMachine(buildAPIProg(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Attach with zero Config did not panic")
		}
	}()
	fpvm.Attach(m, fpvm.Config{})
}

// TestEverySystemSmoke attaches each public arithmetic-system constructor
// under the same program and checks the run completes with FP work emulated.
func TestEverySystemSmoke(t *testing.T) {
	systems := []struct {
		name string
		sys  fpvm.System
	}{
		{"vanilla", fpvm.NewVanillaSystem()},
		{"mpfr", fpvm.NewMPFRSystem(200)},
		{"adaptive", fpvm.NewAdaptiveMPFRSystem(64, 1024)},
		{"interval", fpvm.NewIntervalSystem()},
		{"bfloat16", fpvm.NewBFloat16System()},
		{"posit8", fpvm.NewPositSystem(fpvm.Posit8)},
		{"posit16", fpvm.NewPositSystem(fpvm.Posit16)},
		{"posit32", fpvm.NewPositSystem(fpvm.Posit32)},
		{"posit64", fpvm.NewPositSystem(fpvm.Posit64)},
	}
	var native bytes.Buffer
	nm, err := fpvm.NewMachine(buildAPIProg(t), &native)
	if err != nil {
		t.Fatal(err)
	}
	if err := nm.Run(0); err != nil {
		t.Fatal(err)
	}

	for _, tc := range systems {
		t.Run(tc.name, func(t *testing.T) {
			if tc.sys == nil {
				t.Fatal("constructor returned nil system")
			}
			prog := buildAPIProg(t)
			var out bytes.Buffer
			m, err := fpvm.NewMachine(prog, &out)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fpvm.AnalyzeAndPatch(prog, m); err != nil {
				t.Fatal(err)
			}
			vm := fpvm.Attach(m, fpvm.Config{System: tc.sys})
			if err := m.Run(0); err != nil {
				t.Fatal(err)
			}
			if vm.Stats.Traps == 0 || vm.Stats.Emulated == 0 {
				t.Errorf("no FP work virtualized: traps=%d emulated=%d",
					vm.Stats.Traps, vm.Stats.Emulated)
			}
			if tc.name == "vanilla" && out.String() != native.String() {
				t.Errorf("vanilla output differs from native:\n%q\nvs\n%q",
					out.String(), native.String())
			}
			if out.Len() == 0 {
				t.Error("virtualized program produced no output")
			}
		})
	}
}

func TestAttachSpy(t *testing.T) {
	var native, spied bytes.Buffer
	nm, err := fpvm.NewMachine(buildAPIProg(t), &native)
	if err != nil {
		t.Fatal(err)
	}
	if err := nm.Run(0); err != nil {
		t.Fatal(err)
	}

	m, err := fpvm.NewMachine(buildAPIProg(t), &spied)
	if err != nil {
		t.Fatal(err)
	}
	spy := fpvm.AttachSpy(m)
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if spied.String() != native.String() {
		t.Errorf("FPSpy mode changed program output:\n%q\nvs\n%q",
			spied.String(), native.String())
	}
	var rep bytes.Buffer
	spy.Report(&rep, 5)
	if rep.Len() == 0 {
		t.Error("spy report is empty")
	}
}

// TestTelemetryPublicSurface exercises the re-exported collector end to end:
// attach via Machine.Telem, run, render both artifacts.
func TestTelemetryPublicSurface(t *testing.T) {
	prog := buildAPIProg(t)
	m, err := fpvm.NewMachine(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	telem := fpvm.NewTelemetry(0)
	m.Telem = telem
	vm := fpvm.Attach(m, fpvm.Config{System: fpvm.NewMPFRSystem(100)})
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	fp, _, _ := telem.TrapTotals()
	if fp != vm.Stats.Traps {
		t.Errorf("telemetry fp traps = %d, vm.Stats.Traps = %d", fp, vm.Stats.Traps)
	}
	var sites, trace bytes.Buffer
	telem.WriteTopSites(&sites, 3)
	if !strings.Contains(sites.String(), "trap telemetry:") {
		t.Errorf("top-sites report malformed:\n%s", sites.String())
	}
	if err := telem.WriteJSONL(&trace); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(trace.String(), `{"ev":"trace-header"`) {
		t.Errorf("JSONL trace missing header line:\n%.120s", trace.String())
	}
}

// TestConfigDefaults pins that the zero values of the optional Config knobs
// are usable: default GC epoch, no sequence emulation, default costs.
func TestConfigDefaults(t *testing.T) {
	prog := buildAPIProg(t)
	m, err := fpvm.NewMachine(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	vm := fpvm.Attach(m, fpvm.Config{System: fpvm.NewVanillaSystem()})
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if vm.Stats.Sequences != 0 {
		t.Errorf("sequence emulation ran with MaxSequenceLen 0: %d sequences",
			vm.Stats.Sequences)
	}
	if vm.Stats.Traps == 0 {
		t.Error("default config virtualized no FP instructions")
	}
}

// sinkProg stores a NaN-boxed quotient and reads it back as an integer: one
// §4.2 sink, so AnalyzeAndPatch installs one correctness site.
const sinkProg = `
.data
a: .f64 1.0
slot: .zero 8
.text
	movsd f0, [a]
	divsd f0, =3.0
	movsd [slot], f0
	mov r0, [slot]
	outi r0
	halt
`

// TestAnalyzeAndPatchLoadsAnalyzedImage pins the one-shot pipeline's load:
// AnalyzeAndPatch reloads the machine over an image carrying the sites,
// sharing the instructions NewMachine predecoded, and the patched run reads
// the IEEE bits at the sink.
func TestAnalyzeAndPatchLoadsAnalyzedImage(t *testing.T) {
	prog, err := asm.Assemble(sinkProg)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	m, err := fpvm.NewMachine(prog, &out)
	if err != nil {
		t.Fatal(err)
	}
	before, insts := m.Image(), m.Insts()
	p, err := fpvm.AnalyzeAndPatch(prog, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Sites) != 1 || m.Image().SiteCount() != 1 {
		t.Fatalf("sites: report %d, image %d; want 1 each", len(p.Sites), m.Image().SiteCount())
	}
	for addr := range p.Sites {
		if _, ok := m.CorrectnessSite(addr); !ok {
			t.Fatalf("the sink at %#x carries no installed site", addr)
		}
	}
	if m.Image() == before || !m.Image().Analyzed() {
		t.Fatal("the machine was not reloaded over an analyzed image")
	}
	if &m.Insts()[0] != &insts[0] {
		t.Error("the analyzed image predecoded the program again instead of sharing the machine's instructions")
	}
	fpvm.Attach(m, fpvm.Config{System: fpvm.NewVanillaSystem()})
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.TrimSpace(out.String()), strconv.FormatUint(math.Float64bits(1.0/3.0), 10); got != want {
		t.Errorf("patched sink printed %s, want the IEEE bits of 1/3 (%s)", got, want)
	}
}

// TestAnalyzeAndPatchRefusesLateCalls: the sites are fixed for a run, so
// AnalyzeAndPatch refuses a machine that has retired an instruction, one
// with a runtime already attached, and a program other than the machine's.
func TestAnalyzeAndPatchRefusesLateCalls(t *testing.T) {
	prog := buildAPIProg(t)
	newM := func() *fpvm.Machine {
		m, err := fpvm.NewMachine(prog, &bytes.Buffer{})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	ran := newM()
	if err := ran.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := fpvm.AnalyzeAndPatch(prog, ran); err == nil {
		t.Error("AnalyzeAndPatch accepted a machine that has already run")
	}

	attached := newM()
	fpvm.Attach(attached, fpvm.Config{System: fpvm.NewVanillaSystem()})
	if _, err := fpvm.AnalyzeAndPatch(prog, attached); err == nil {
		t.Error("AnalyzeAndPatch accepted a machine with a runtime attached")
	}

	if _, err := fpvm.AnalyzeAndPatch(buildAPIProg(t), newM()); err == nil {
		t.Error("AnalyzeAndPatch accepted a program the machine was not created with")
	}
	if _, err := fpvm.AnalyzeAndPatch(prog, newM()); err != nil {
		t.Errorf("AnalyzeAndPatch on a fresh machine: %v", err)
	}
}
