package experiments

import (
	"bytes"
	"fmt"

	"fpvm/internal/arith"
	"fpvm/internal/asm"
	"fpvm/internal/fpvm"
	"fpvm/internal/machine"
	"fpvm/internal/patch"
	"fpvm/internal/session"
)

// bitHackSrc is the paper's Figure 6 idiom made hot: a frexp-style exponent
// extraction that stores a double and reloads its bits as an integer. Phase
// A produces inexact (NaN-boxed) values; phase B produces exact (unboxed)
// ones — so a conservative static patch traps on every iteration of both
// phases, while the §6.2 hardware check fires only in phase A.
const bitHackSrc = `
.data
slot: .zero 8
esum: .i64 0
fsum: .f64 0.0
.text
	mov r9, $1
phaseA:                     ; x = i/7 rounds → boxed under FPVM
	cvtsi2sd f0, r9
	divsd f0, =7.0
	movsd [slot], f0        ; source: FP store
	mov r0, [slot]          ; sink: integer reload of the bits
	shr r0, $52
	and r0, $0x7FF          ; biased exponent field
	mov r1, [esum]
	add r1, r0
	mov [esum], r1
	movsd f1, [fsum]
	addsd f1, f0
	movsd [fsum], f1
	inc r9
	cmp r9, $100
	jle phaseA
	mov r9, $1
phaseB:                     ; x = i*2 is exact → never boxed
	cvtsi2sd f0, r9
	mulsd f0, =2.0
	movsd [slot], f0
	mov r0, [slot]
	shr r0, $52
	and r0, $0x7FF
	mov r1, [esum]
	add r1, r0
	mov [esum], r1
	inc r9
	cmp r9, $100
	jle phaseB
	mov r2, [esum]
	outi r2
	movsd f3, [fsum]
	outf f3
	halt
`

// NaNLoadResult compares three configurations of the same binary under
// FPVM+Vanilla:
//
//	Unpatched: no static analysis, no hardware help → boxes leak into the
//	  exponent extraction and the integer result is corrupted.
//	Patched: the paper's hybrid (VSA + correctness traps) → correct, but
//	  the static patch fires on every execution of the sink.
//	HWNaNLoad: the §6.2 trap-on-NaN-load hardware extension, no static
//	  analysis → correct, trapping only when a box is actually loaded.
type NaNLoadResult struct {
	NativeOut    string
	UnpatchedOut string
	PatchedOut   string
	HWOut        string

	PatchedCorrTraps uint64
	HWCorrTraps      uint64
	PatchedCycles    uint64
	HWCycles         uint64
	AnalysisSinks    int
}

// NaNLoadData runs the three configurations of the bit-hack workload.
func NaNLoadData(o Options) (*NaNLoadResult, error) {
	o.defaults()
	res := &NaNLoadResult{}

	prog, err := asm.Assemble(bitHackSrc)
	if err != nil {
		return nil, err
	}
	img, err := patch.NewImage(prog)
	if err != nil {
		return nil, err
	}
	res.AnalysisSinks = img.SiteCount()
	var nout bytes.Buffer
	nm, err := machine.NewFromImage(img, &nout, 0)
	if err != nil {
		return nil, err
	}
	if err := nm.Run(0); err != nil {
		return nil, err
	}
	res.NativeOut = nout.String()

	// Each configuration checks the one image out through a session's load
	// step; the unpatched and hardware runs skip its correctness sites.
	runCfg := func(usePatch, useHW bool) (string, *machine.Machine, error) {
		var out bytes.Buffer
		cfg := session.Config{Config: fpvm.Config{System: arith.Vanilla{}}, NoPatch: !usePatch}
		s := session.New()
		if err := s.Load(img, &out, cfg); err != nil {
			return "", nil, err
		}
		m := s.Machine()
		m.TrapOnNaNLoad = useHW
		if err := m.Run(0); err != nil {
			return "", nil, err
		}
		return out.String(), m, nil
	}

	var m *machine.Machine
	if res.UnpatchedOut, _, err = runCfg(false, false); err != nil {
		return nil, err
	}
	if res.PatchedOut, m, err = runCfg(true, false); err != nil {
		return nil, err
	}
	res.PatchedCorrTraps = m.Stats.CorrectTraps
	res.PatchedCycles = m.Cycles
	if res.HWOut, m, err = runCfg(false, true); err != nil {
		return nil, err
	}
	res.HWCorrTraps = m.Stats.CorrectTraps
	res.HWCycles = m.Cycles
	return res, nil
}

// NaNLoad prints the §6.2 "trap on NaN-load" hardware-extension study.
func NaNLoad(o Options) error {
	o.defaults()
	r, err := NaNLoadData(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(o.W, "§6.2 Trap-on-NaN-load hardware extension (Figure 6 bit-hack workload, FPVM+Vanilla)")
	fmt.Fprintf(o.W, "  native output reproduced by:\n")
	fmt.Fprintf(o.W, "    unpatched FPVM (no analysis, no HW):   %v   ← the virtualization hole corrupts bits\n",
		r.UnpatchedOut == r.NativeOut)
	fmt.Fprintf(o.W, "    VSA-patched FPVM (paper's hybrid):     %v   (%d sinks, %d correctness traps)\n",
		r.PatchedOut == r.NativeOut, r.AnalysisSinks, r.PatchedCorrTraps)
	fmt.Fprintf(o.W, "    trap-on-NaN-load HW (no analysis):     %v   (%d hardware traps)\n",
		r.HWOut == r.NativeOut, r.HWCorrTraps)
	fmt.Fprintf(o.W, "  cycles: patched %d vs hardware %d (%.2fx)\n",
		r.PatchedCycles, r.HWCycles, float64(r.HWCycles)/float64(r.PatchedCycles))
	fmt.Fprintln(o.W, "\nThe static patch must trap on every execution of the sink (both phases);")
	fmt.Fprintln(o.W, "the hardware check fires only when a NaN pattern is actually loaded (phase A),")
	fmt.Fprintln(o.W, "and needs no analysis at all — the paper's argument for the extension.")
	return nil
}
