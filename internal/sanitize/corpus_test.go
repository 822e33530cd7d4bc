package sanitize_test

// The sanitizer corpus: classic numerically unstable kernels paired with
// their stable rewrites. Each unstable kernel must be flagged at exactly
// the instruction that introduces the catastrophic loss, with a nonzero
// error bound; each stable rewrite must come out clean — including Kahan
// summation, whose compensation term shows a huge per-op shadow error by
// design but never lets it reach anything the guest can observe. The same
// expectations must hold across all execution tiers (interpreter, sequence
// emulation, trace-JIT), pinning superblock multi-retire PC attribution.

import (
	"testing"

	"fpvm/internal/arith"
	"fpvm/internal/asm"
	"fpvm/internal/examples"
	"fpvm/internal/fpvm"
	"fpvm/internal/isa"
	"fpvm/internal/machine"
	"fpvm/internal/patch"
	"fpvm/internal/sanitize"
	"fpvm/internal/session"
)

// oneMinusCosNaive computes 1 - cos(x) for tiny x: the subtraction cancels
// ~27 bits and inherits cos's rounding error at full weight.
const oneMinusCosNaive = `
.text
	movsd f0, =1e-4
	fcos f1, f0
	movsd f2, =1.0
	subsd f2, f1       ; 1 - cos(x): catastrophic cancellation
	outf f2
	halt
`

// oneMinusCosStable is the rewrite 2*sin^2(x/2): same value, no cancellation.
const oneMinusCosStable = `
.text
	movsd f0, =1e-4
	mulsd f0, =0.5
	fsin f1, f0
	mulsd f1, f1
	addsd f1, f1
	outf f1
	halt
`

// quadraticNaive computes the small root of x^2 - 10^4 x + 1 as
// (b - sqrt(b^2-4))/2: b and sqrt(disc) agree to ~25 bits, so the
// subtraction amplifies sqrt's half-ulp error to ~23 lost bits.
const quadraticNaive = `
.text
	movsd f0, =10000.0
	movsd f1, f0
	mulsd f1, f1
	subsd f1, =4.0     ; disc = b^2 - 4 (benign: 1e8 vs 4)
	sqrtsd f2, f1
	movsd f3, f0
	subsd f3, f2       ; b - sqrt(disc): catastrophic cancellation
	divsd f3, =2.0
	outf f3
	halt
`

// quadraticStable uses the co-root identity 2c/(b + sqrt(disc)).
const quadraticStable = `
.text
	movsd f0, =10000.0
	movsd f1, f0
	mulsd f1, f1
	subsd f1, =4.0
	sqrtsd f2, f1
	addsd f2, f0
	movsd f3, =2.0
	divsd f3, f2
	outf f3
	halt
`

// varianceNaive computes E[x^2] - E[x]^2 over x_k = 10^4 + 0.1k: the two
// terms agree to ~23 bits, so the one-pass formula loses ~24 bits.
const varianceNaive = `
.data
n: .i64 100
.text
	movsd f0, =0.0     ; sum
	movsd f1, =0.0     ; sumsq
	mov r0, $0
loop:
	cvtsi2sd f2, r0
	mulsd f2, =0.1
	addsd f2, =10000.0 ; x = 1e4 + 0.1k
	addsd f0, f2
	movsd f3, f2
	mulsd f3, f2
	addsd f1, f3
	inc r0
	cmp r0, [n]
	jl loop
	cvtsi2sd f4, r0
	divsd f0, f4       ; mean
	divsd f1, f4       ; E[x^2]
	movsd f5, f0
	mulsd f5, f0       ; mean^2
	subsd f1, f5       ; E[x^2] - mean^2: catastrophic cancellation
	outf f1
	halt
`

// varianceStable is the shifted two-pass formula sum((x-mean)^2)/n: the
// x - mean subtractions are benign (the error they expose is tiny).
const varianceStable = `
.data
n: .i64 100
.text
	movsd f0, =0.0     ; sum
	mov r0, $0
m1:
	cvtsi2sd f2, r0
	mulsd f2, =0.1
	addsd f2, =10000.0
	addsd f0, f2
	inc r0
	cmp r0, [n]
	jl m1
	cvtsi2sd f4, r0
	divsd f0, f4       ; mean
	movsd f1, =0.0
	mov r0, $0
m2:
	cvtsi2sd f2, r0
	mulsd f2, =0.1
	addsd f2, =10000.0
	subsd f2, f0       ; x - mean
	mulsd f2, f2
	addsd f1, f2
	inc r0
	cmp r0, [n]
	jl m2
	divsd f1, f4
	outf f1
	halt
`

// corpusCase pairs a kernel with its flagging expectation. A case with
// wantOp == OpInvalid expects a completely clean report.
type corpusCase struct {
	name      string
	src       string
	threshold float64
	// wantOp/wantNth locate the instruction that must be flagged: the
	// wantNth-th occurrence of wantOp in the disassembly.
	wantOp  isa.Op
	wantNth int
	// wantCancel additionally requires the flagged site to have recorded a
	// threshold-crossing exponent drop.
	wantCancel bool
}

// The summation pair reuses the errorbounds example verbatim: one program
// holding both the naive loop (first addsd, ~10.5 lost bits) and the Kahan
// loop (clean at the boundary). Threshold 6 sits between them.
func corpusCases() []corpusCase {
	return []corpusCase{
		{"one-minus-cos/naive", oneMinusCosNaive, 20, isa.OpSubsd, 1, true},
		{"one-minus-cos/stable", oneMinusCosStable, 20, isa.OpInvalid, 0, false},
		{"quadratic/naive", quadraticNaive, 20, isa.OpSubsd, 2, true},
		{"quadratic/stable", quadraticStable, 20, isa.OpInvalid, 0, false},
		{"variance/naive", varianceNaive, 20, isa.OpSubsd, 1, true},
		{"variance/stable", varianceStable, 20, isa.OpInvalid, 0, false},
		{"summation/naive-vs-kahan", examples.Kahan, 6, isa.OpAddsd, 1, false},
	}
}

// tierConfigs are the execution tiers every corpus expectation must hold
// under; flag sets and guest outputs may not vary across them.
var tierConfigs = []struct {
	name string
	mut  func(*session.Config)
}{
	{"interp", func(c *session.Config) {}},
	{"seqemu", func(c *session.Config) { c.MaxSequenceLen = 16 }},
	{"jit", func(c *session.Config) { c.JITThreshold = 2 }},
}

func build(t *testing.T, src string) *isa.Program {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return prog
}

// nthPC returns the address of the n-th occurrence (1-based) of op.
func nthPC(t *testing.T, prog *isa.Program, op isa.Op, n int) uint64 {
	t.Helper()
	insts, err := prog.Disassemble()
	if err != nil {
		t.Fatalf("disassemble: %v", err)
	}
	seen := 0
	for _, in := range insts {
		if in.Op == op {
			seen++
			if seen == n {
				return in.Addr
			}
		}
	}
	t.Fatalf("no %d-th %s in program", n, op)
	return 0
}

// mustImage analyzes and predecodes prog into the image a session runs.
func mustImage(t testing.TB, prog *isa.Program) *machine.Image {
	t.Helper()
	img, err := patch.NewImage(prog)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func runSanitized(t *testing.T, prog *isa.Program, threshold float64, mut func(*session.Config)) session.Result {
	t.Helper()
	cfg := session.Config{Config: fpvm.Config{
		System:   arith.Vanilla{},
		Sanitize: &sanitize.Options{ThresholdBits: threshold},
	}}
	mut(&cfg)
	res, err := session.New().Run(mustImage(t, prog), cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Sanitize == nil {
		t.Fatal("Config.Sanitize set but Result.Sanitize is nil")
	}
	return res
}

func flaggedPCs(rep *sanitize.Report) map[uint64]bool {
	out := make(map[uint64]bool)
	for _, s := range rep.Flagged() {
		out[s.PC] = true
	}
	return out
}

// TestCorpus checks every kernel against its expectation on the plain
// interpreter tier: unstable kernels flag exactly the guilty instruction
// with a nonzero bound, stable rewrites flag nothing.
func TestCorpus(t *testing.T) {
	for _, tc := range corpusCases() {
		t.Run(tc.name, func(t *testing.T) {
			prog := build(t, tc.src)
			res := runSanitized(t, prog, tc.threshold, func(*session.Config) {})
			rep := res.Sanitize
			if rep.Samples == 0 {
				t.Fatal("sanitizer observed no samples")
			}
			flags := flaggedPCs(rep)

			if tc.wantOp == isa.OpInvalid {
				if len(flags) != 0 {
					t.Fatalf("stable rewrite flagged %d site(s): %+v", len(flags), rep.Flagged())
				}
				return
			}

			want := nthPC(t, prog, tc.wantOp, tc.wantNth)
			if len(flags) != 1 || !flags[want] {
				t.Fatalf("flagged sites = %v, want exactly {%#x} (%s #%d)",
					keys(flags), want, tc.wantOp, tc.wantNth)
			}
			site, ok := rep.Site(want)
			if !ok {
				t.Fatalf("no site record for flagged pc %#x", want)
			}
			if site.FlaggedLost < tc.threshold {
				t.Errorf("FlaggedLost = %.2f, want >= threshold %g", site.FlaggedLost, tc.threshold)
			}
			if site.MaxLostBits <= 0 {
				t.Errorf("MaxLostBits = %v, want > 0", site.MaxLostBits)
			}
			if tc.wantCancel {
				if site.Cancellations == 0 {
					t.Errorf("Cancellations = 0, want > 0 at %#x", want)
				}
				if float64(site.MaxCancelBits) < tc.threshold {
					t.Errorf("MaxCancelBits = %d, want >= threshold %g", site.MaxCancelBits, tc.threshold)
				}
			}
		})
	}
}

// TestCorpusAcrossTiers re-runs every corpus kernel under every execution
// tier: the flag set must match the interpreter's exactly (superblock
// multi-retire must attribute per-PC errors correctly), and the guest
// output must be bit-identical to a sanitizer-off run of the same tier.
func TestCorpusAcrossTiers(t *testing.T) {
	for _, tc := range corpusCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			prog := build(t, tc.src)
			base := runSanitized(t, prog, tc.threshold, tierConfigs[0].mut)
			baseFlags := flaggedPCs(base.Sanitize)

			for _, tier := range tierConfigs {
				res := runSanitized(t, prog, tc.threshold, tier.mut)
				flags := flaggedPCs(res.Sanitize)
				if !sameSet(flags, baseFlags) {
					t.Errorf("%s: flagged %v, interp flagged %v", tier.name, keys(flags), keys(baseFlags))
				}

				// Sanitizer-off differential: same tier, no sanitizer.
				cfg := session.Config{Config: fpvm.Config{System: arith.Vanilla{}}}
				tier.mut(&cfg)
				plain, err := session.New().Run(mustImage(t, prog), cfg)
				if err != nil {
					t.Fatalf("%s: plain run: %v", tier.name, err)
				}
				if plain.Output != res.Output {
					t.Errorf("%s: sanitizer changed guest output:\n  on:  %q\n  off: %q",
						tier.name, res.Output, plain.Output)
				}
				if plain.Cycles != res.Cycles {
					t.Errorf("%s: sanitizer changed modeled cycles: on=%d off=%d",
						tier.name, res.Cycles, plain.Cycles)
				}
			}
		})
	}
}

func keys(m map[uint64]bool) []uint64 {
	var out []uint64
	for k := range m {
		out = append(out, k)
	}
	return out
}

func sameSet(a, b map[uint64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
