package session_test

import (
	"bytes"
	"fmt"
	"fpvm/internal/session"
	"testing"

	"fpvm/internal/arith"
	"fpvm/internal/asm"
	"fpvm/internal/fpu"
	"fpvm/internal/machine"
	"fpvm/internal/oracle"
	"fpvm/internal/posit"
)

// passThrough forwards every call to the System it embeds, so the VM keeps
// its shadows through the boxed adapter instead of the embedded system's
// typed cells. It counts the calls behind the conversion, compare and output
// paths, so a test can show those paths ran.
type passThrough struct {
	arith.System
	fromInt, truncToInt, compares, formats int
}

func (p *passThrough) FromInt64(i int64) arith.Value {
	p.fromInt++
	return p.System.FromInt64(i)
}

func (p *passThrough) ToInt64(v arith.Value, rc fpu.RoundingControl) (int64, bool) {
	if rc == fpu.RCZero {
		p.truncToInt++
	}
	return p.System.ToInt64(v, rc)
}

func (p *passThrough) Compare(a, b arith.Value) (int, bool) {
	p.compares++
	return p.System.Compare(a, b)
}

func (p *passThrough) Format(v arith.Value) string {
	p.formats++
	return p.System.Format(v)
}

// convProgram reaches every cell path outside plain arithmetic on boxed
// values: cvtsi2sd of an integer above 2^53 (inexact, so it traps),
// cvttsd2si and ucomisd of a boxed quotient, and output of a boxed value.
const convProgram = `
	mov r1, $9007199254740993 ; 2^53 + 1
	cvtsi2sd f0, r1           ; PE: traps, boxed result
	movsd f1, =3.0
	divsd f0, f1              ; boxed operand, boxed result
	cvttsd2si r2, f0
	ucomisd f0, f1
	outf f0
	movsd f2, =1.0
	divsd f2, f1
	ucomisd f2, f0
	outf f2
	halt
`

// TestStoreChoiceInvisibleAllTargets runs every fig target, plus a program
// built around the conversion, compare and output paths, under Vanilla and
// MPFR-200, each plain and with sequence emulation and the trace JIT armed.
// The same system is run once on its typed cells and once wrapped in
// passThrough, which the VM serves through the boxed adapter: output,
// modeled cycles, every Machine and VM counter and the final state must be
// equal. Under Vanilla both must also print what native execution prints.
func TestStoreChoiceInvisibleAllTargets(t *testing.T) {
	targets, progs := buildTargets(t)
	if len(targets) < 16 {
		t.Fatalf("expected at least 16 fig targets, have %d", len(targets))
	}
	names := make([]string, len(targets), len(targets)+1)
	for i, tgt := range targets {
		names[i] = tgt.Name
	}
	names = append(names, "conversions")
	progs = append(progs, mustImage(t, asm.MustAssemble(convProgram)))
	native := make([]string, len(progs))
	for i, img := range progs {
		var out bytes.Buffer
		nm, err := machine.NewFromImage(img, &out, testMemSize)
		if err != nil {
			t.Fatalf("%s: native machine: %v", names[i], err)
		}
		if err := nm.Run(0); err != nil {
			t.Fatalf("%s: native run: %v", names[i], err)
		}
		native[i] = out.String()
	}

	for _, sys := range []arith.System{arith.Vanilla{}, arith.NewMPFR(200)} {
		for _, tiers := range []struct {
			name        string
			seqlen, jit int
		}{{"plain", 0, 0}, {"seqlen16+jit8", 16, 8}} {
			wrapped := &passThrough{System: sys}
			for i, img := range progs {
				name := fmt.Sprintf("%s/%s/%s", names[i], sys.Name(), tiers.name)
				cfg := baseConfig()
				cfg.System = sys
				cfg.MaxSequenceLen, cfg.JITThreshold = tiers.seqlen, tiers.jit
				bcfg := cfg
				bcfg.System = wrapped

				typed, boxed := session.New(), session.New()
				tres, err := typed.Run(img, cfg)
				if err != nil {
					t.Fatalf("%s: typed run: %v", name, err)
				}
				bres, err := boxed.Run(img, bcfg)
				if err != nil {
					t.Fatalf("%s: boxed run: %v", name, err)
				}
				requireIdentical(t, name, tres, bres, typed.Machine(), boxed.Machine())
				if _, ok := sys.(arith.Vanilla); ok && tres.Output != native[i] {
					t.Errorf("%s: output differs from native:\nnative: %q\nfpvm:   %q", name, native[i], tres.Output)
				}
			}
			if wrapped.fromInt == 0 || wrapped.truncToInt == 0 || wrapped.compares == 0 || wrapped.formats == 0 {
				t.Errorf("%s/%s: a cell path never ran: cvtsi2sd %d, cvttsd2si %d, ucomisd %d, output %d",
					sys.Name(), tiers.name, wrapped.fromInt, wrapped.truncToInt, wrapped.compares, wrapped.formats)
			}
		}
	}
}

// TestPooledSessionAcrossStoreKinds reattaches one pooled session to a
// system of each store kind in turn — Vanilla (float64 cells), MPFR-200
// (mpfr.Float cells), posit32 (boxed adapter), and Vanilla again — and
// requires each run to be bit-identical to a fresh session's.
func TestPooledSessionAcrossStoreKinds(t *testing.T) {
	names := []string{"FBench", "Lorenz Attractor", "NAS CG/Class S"}
	pooled := session.New()
	for _, sys := range []arith.System{arith.Vanilla{}, arith.NewMPFR(200), arith.NewPosit(posit.Posit32), arith.Vanilla{}} {
		for _, n := range names {
			tgt, err := oracle.Lookup(n)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := tgt.Build()
			if err != nil {
				t.Fatal(err)
			}
			img := mustImage(t, prog)
			cfg := baseConfig()
			cfg.System = sys
			cfg.MaxSequenceLen, cfg.JITThreshold = 16, 8
			fresh := session.New()
			fres, err := fresh.Run(img, cfg)
			if err != nil {
				t.Fatalf("%s/%s: fresh run: %v", n, sys.Name(), err)
			}
			pres, err := pooled.Run(img, cfg)
			if err != nil {
				t.Fatalf("%s/%s: pooled run: %v", n, sys.Name(), err)
			}
			requireIdentical(t, n+"/"+sys.Name(), fres, pres, fresh.Machine(), pooled.Machine())
		}
	}
}
