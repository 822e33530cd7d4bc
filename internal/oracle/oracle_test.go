package oracle

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"fpvm/internal/arith"
	"fpvm/internal/asm"
	"fpvm/internal/fpvm"
	"fpvm/internal/isa"
	"fpvm/internal/posit"
	"fpvm/internal/progen"
)

// TestVanillaBitExact is the repository's §5.2 validation: over every
// workload and every example, the FPVM-virtualized Vanilla run must be
// bit-identical to native — same RIP trace, same registers, same memory,
// same output. Shadows are disabled so this stays fast and failures are
// unambiguous.
func TestVanillaBitExact(t *testing.T) {
	for _, tgt := range AllTargets() {
		tgt := tgt
		t.Run(tgt.Name, func(t *testing.T) {
			rep, err := Run(tgt, Options{Systems: []arith.System{}})
			if err != nil {
				t.Fatal(err)
			}
			v := rep.Vanilla
			if !rep.Ok() {
				t.Fatalf("vanilla diverged: control=%v firstPC=%#x op=%s regs=%v flags=%v mem=%v out=%v",
					v.ControlDiverged, v.FirstDivergencePC, v.FirstDivergenceOp,
					v.RegsIdentical, v.FlagsIdentical, v.MemIdentical, v.OutputIdentical)
			}
			if v.LockstepInsts != rep.NativeInstructions {
				t.Errorf("lockstep retired %d instructions, native %d",
					v.LockstepInsts, rep.NativeInstructions)
			}
			if v.FPTraps == 0 && rep.NativeFPInstructions > 0 {
				t.Errorf("virtualized run delivered no FP traps over %d FP instructions — FPVM not engaged",
					rep.NativeFPInstructions)
			}
		})
	}
}

// TestShadowReportContents checks the numerical half of the oracle on one
// real workload: the MPFR and posit shadows must produce per-op error
// tables and condition-class trap coverage, and MPFR at 200 bits must stay
// close to IEEE while posit32 visibly diverges in the tail.
func TestShadowReportContents(t *testing.T) {
	tgt, err := Lookup("Lorenz Attractor")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(tgt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatal("vanilla oracle failed on Lorenz")
	}
	if len(rep.Shadows) != 2 {
		t.Fatalf("want 2 default shadows, got %d", len(rep.Shadows))
	}
	for _, sr := range rep.Shadows {
		if len(sr.OpErrors) == 0 {
			t.Errorf("%s: empty per-op error table", sr.System)
		}
		var lanes, traps uint64
		for _, e := range sr.OpErrors {
			lanes += e.Count
		}
		if lanes == 0 {
			t.Errorf("%s: no lanes compared", sr.System)
		}
		for _, n := range sr.CondCover {
			traps += n
		}
		if traps == 0 {
			t.Errorf("%s: empty condition-class coverage", sr.System)
		}
	}

	var buf bytes.Buffer
	rep.Write(&buf)
	out := buf.String()
	for _, want := range []string{"PASS", "mpfr200", "posit32e2", "max relerr", "class"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestLookupRejectsUnknown pins the error path.
func TestLookupRejectsUnknown(t *testing.T) {
	if _, err := Lookup("no-such-target"); err == nil {
		t.Fatal("want error for unknown target")
	}
}

// fuzzTarget wraps one generated program for the oracle.
func fuzzTarget(src string) Target {
	return Target{
		Name:  "fuzz",
		Build: func() (*isa.Program, error) { return asm.Assemble(src) },
	}
}

// FuzzDifferentialOracle is the CI fuzz stage: generate a random FP
// program, run the full differential oracle over it, and require the
// virtualized Vanilla run to stay bit-identical to native. Any counter-
// example is a virtualization bug with a one-instruction-precise report.
//
// loop wraps the chain in a hot counted loop (progen.FPLoopSource) so sites
// cross realistic thresholds; jitT arms the trace-JIT superblock tier (plus
// coalescing) at that threshold, putting the compile/bind/invalidate seam
// under the same bit-identity oracle as the classic path.
func FuzzDifferentialOracle(f *testing.F) {
	for _, s := range progen.Seeds() {
		f.Add(s, int(progen.DefaultFPLen), false, 0)
		f.Add(s, int(progen.DefaultFPLen), true, 3)
		f.Add(s, int(progen.DefaultFPLen), true, 2)
	}
	f.Fuzz(func(t *testing.T, seed int64, n int, loop bool, jitT int) {
		if n < 1 || n > 400 {
			n = int(progen.DefaultFPLen)
		}
		if jitT < 0 || jitT > 64 {
			jitT = 3
		}
		r := rand.New(rand.NewSource(seed))
		var src string
		if loop {
			if n > 120 {
				n = 120 // bound the loop body so iterations stay cheap
			}
			src = progen.FPLoopSource(r, n, 24)
		} else {
			src = progen.FPSource(r, n)
		}
		opts := Options{
			MaxInst: 2_000_000,
			Systems: []arith.System{arith.NewPosit(posit.Posit32)},
		}
		if jitT > 0 {
			opts.VM.MaxSequenceLen = 8
			opts.VM.JITThreshold = jitT
		}
		rep, err := Run(fuzzTarget(src), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Ok() {
			v := rep.Vanilla
			t.Fatalf("seed %d (loop=%v jit=%d): vanilla diverged at PC %#x (%s); control=%v regs=%v flags=%v mem=%v out=%v\nprogram:\n%s",
				seed, loop, jitT, v.FirstDivergencePC, v.FirstDivergenceOp, v.ControlDiverged,
				v.RegsIdentical, v.FlagsIdentical, v.MemIdentical, v.OutputIdentical, src)
		}
	})
}

// TestVanillaBitExactWithCoalescing reruns the §5.2 bit-exactness gate with
// sequence emulation enabled: one trap delivery now retires a whole
// straight-line FP run, the comparator resynchronizes on retirement counts,
// and the final state must STILL be byte-identical to native. This is the
// tentpole correctness claim for trap coalescing.
func TestVanillaBitExactWithCoalescing(t *testing.T) {
	for _, tgt := range AllTargets() {
		tgt := tgt
		t.Run(tgt.Name, func(t *testing.T) {
			rep, err := Run(tgt, Options{Systems: []arith.System{}, VM: fpvm.Config{MaxSequenceLen: 16}})
			if err != nil {
				t.Fatal(err)
			}
			v := rep.Vanilla
			if !rep.Ok() {
				t.Fatalf("vanilla+seqemu diverged: control=%v firstPC=%#x op=%s regs=%v flags=%v mem=%v out=%v",
					v.ControlDiverged, v.FirstDivergencePC, v.FirstDivergenceOp,
					v.RegsIdentical, v.FlagsIdentical, v.MemIdentical, v.OutputIdentical)
			}
			if v.LockstepInsts != rep.NativeInstructions {
				t.Errorf("lockstep retired %d instructions, native %d",
					v.LockstepInsts, rep.NativeInstructions)
			}
		})
	}
}

// TestJITBitIdenticalAllTargets is the tentpole differential gate: every fig
// target, run under the trace-JIT superblock tier — alone and stacked on
// sequence emulation — must stay bit-identical to native in registers,
// memory, output, and control flow, with the lockstep comparator absorbing
// superblock multi-retires through the same retirement-count resync that
// covers coalescing.
func TestJITBitIdenticalAllTargets(t *testing.T) {
	targets := AllTargets()
	if len(targets) < 16 {
		t.Fatalf("expected at least 16 fig targets, have %d", len(targets))
	}
	configs := []struct {
		name string
		o    Options
	}{
		{"jit", Options{Systems: []arith.System{}, VM: fpvm.Config{JITThreshold: 2}}},
		{"seqemu+jit", Options{Systems: []arith.System{}, VM: fpvm.Config{MaxSequenceLen: 16, JITThreshold: 2}}},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			for _, tgt := range targets {
				tgt := tgt
				t.Run(tgt.Name, func(t *testing.T) {
					rep, err := Run(tgt, cfg.o)
					if err != nil {
						t.Fatal(err)
					}
					v := rep.Vanilla
					if !rep.Ok() {
						t.Fatalf("vanilla+%s diverged: control=%v firstPC=%#x op=%s regs=%v flags=%v mem=%v out=%v",
							cfg.name, v.ControlDiverged, v.FirstDivergencePC, v.FirstDivergenceOp,
							v.RegsIdentical, v.FlagsIdentical, v.MemIdentical, v.OutputIdentical)
					}
					if v.LockstepInsts != rep.NativeInstructions {
						t.Errorf("lockstep retired %d instructions, native %d",
							v.LockstepInsts, rep.NativeInstructions)
					}
				})
			}
		})
	}
}

// TestProgenThreeTierLockstep drives generated hot-loop programs through
// every execution tier — classic interpretation, sequence emulation, and the
// trace-JIT — under the same oracle, pinning the tier-for-tier bit-identity
// the differential harness promises for arbitrary (generated) programs, not
// just the curated fig targets.
func TestProgenThreeTierLockstep(t *testing.T) {
	tiers := []struct {
		name string
		o    Options
	}{
		{"interp", Options{Systems: []arith.System{}}},
		{"seqemu", Options{Systems: []arith.System{}, VM: fpvm.Config{MaxSequenceLen: 8}}},
		{"jit", Options{Systems: []arith.System{}, VM: fpvm.Config{MaxSequenceLen: 8, JITThreshold: 2}}},
	}
	for _, seed := range progen.Seeds()[:4] {
		src := progen.FPLoopSource(rand.New(rand.NewSource(seed)), 40, 24)
		for _, tier := range tiers {
			rep, err := Run(fuzzTarget(src), tier.o)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, tier.name, err)
			}
			v := rep.Vanilla
			if !rep.Ok() {
				t.Fatalf("seed %d %s: diverged at PC %#x (%s); control=%v regs=%v flags=%v mem=%v out=%v",
					seed, tier.name, v.FirstDivergencePC, v.FirstDivergenceOp, v.ControlDiverged,
					v.RegsIdentical, v.FlagsIdentical, v.MemIdentical, v.OutputIdentical)
			}
			if v.LockstepInsts != rep.NativeInstructions {
				t.Fatalf("seed %d %s: lockstep retired %d instructions, native %d",
					seed, tier.name, v.LockstepInsts, rep.NativeInstructions)
			}
		}
	}
}

// TestJITReducesOracleTraps checks the perf mechanism end to end through the
// oracle: arming the trace-JIT tier on top of coalescing must cut delivered
// FP traps further on a target with hot straight-line runs.
func TestJITReducesOracleTraps(t *testing.T) {
	tgt, err := Lookup("Lorenz Attractor")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Run(tgt, Options{Systems: []arith.System{}, VM: fpvm.Config{MaxSequenceLen: 16}})
	if err != nil {
		t.Fatal(err)
	}
	jit, err := Run(tgt, Options{Systems: []arith.System{}, VM: fpvm.Config{MaxSequenceLen: 16, JITThreshold: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if jit.Vanilla.FPTraps >= seq.Vanilla.FPTraps {
		t.Fatalf("traps did not drop under the jit tier: %d (jit) vs %d (seqemu)",
			jit.Vanilla.FPTraps, seq.Vanilla.FPTraps)
	}
}

// TestCoalescingReducesTraps checks the oracle sees fewer deliveries with
// coalescing on, for a target known to have straight-line FP runs.
func TestCoalescingReducesTraps(t *testing.T) {
	tgt, err := Lookup("Lorenz Attractor")
	if err != nil {
		t.Fatal(err)
	}
	off, err := Run(tgt, Options{Systems: []arith.System{}})
	if err != nil {
		t.Fatal(err)
	}
	on, err := Run(tgt, Options{Systems: []arith.System{}, VM: fpvm.Config{MaxSequenceLen: 16}})
	if err != nil {
		t.Fatal(err)
	}
	if on.Vanilla.FPTraps >= off.Vanilla.FPTraps {
		t.Fatalf("traps did not drop under coalescing: %d (on) vs %d (off)",
			on.Vanilla.FPTraps, off.Vanilla.FPTraps)
	}
}
