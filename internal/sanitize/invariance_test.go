package sanitize_test

// Differential invariance: arming the sanitizer must not change anything
// the guest or the cost model can see. Every bundled figure target runs
// under every execution tier twice — sanitizer off and on — and both runs
// must be bit-identical to native execution (the oracle's acceptance gate)
// with exactly equal modeled cycles between the pair.

import (
	"testing"

	"fpvm/internal/arith"
	"fpvm/internal/oracle"
	"fpvm/internal/sanitize"
)

var invarianceTiers = []struct {
	name string
	mut  func(*oracle.Options)
}{
	{"interp", func(o *oracle.Options) {}},
	{"seqemu", func(o *oracle.Options) { o.VM.MaxSequenceLen = 16 }},
	{"jit", func(o *oracle.Options) { o.VM.JITThreshold = 8 }},
}

func TestSanitizerInvariance(t *testing.T) {
	for _, tgt := range oracle.AllTargets() {
		for _, tier := range invarianceTiers {
			tgt, tier := tgt, tier
			t.Run(tgt.Name+"/"+tier.name, func(t *testing.T) {
				t.Parallel()
				base := oracle.Options{
					// Empty non-nil slice: Vanilla only; shadow systems
					// would slow the sweep without adding to the gate.
					Systems: []arith.System{},
					MaxInst: 20_000_000,
				}
				tier.mut(&base)
				off, err := oracle.Run(tgt, base)
				if err != nil {
					t.Fatalf("sanitizer-off run: %v", err)
				}

				san := base
				san.VM.Sanitize = &sanitize.Options{Prec: 64} // cheap shadow: invariance needs presence, not accuracy
				on, err := oracle.Run(tgt, san)
				if err != nil {
					t.Fatalf("sanitizer-on run: %v", err)
				}

				if !off.Vanilla.BitIdentical() {
					t.Errorf("sanitizer-off not bit-identical to native (first PC %#x)",
						off.Vanilla.FirstDivergencePC)
				}
				if !on.Vanilla.BitIdentical() {
					t.Errorf("sanitizer-on not bit-identical to native (first PC %#x)",
						on.Vanilla.FirstDivergencePC)
				}
				if on.Vanilla.Cycles != off.Vanilla.Cycles {
					t.Errorf("sanitizer perturbed modeled cycles: on=%d off=%d",
						on.Vanilla.Cycles, off.Vanilla.Cycles)
				}
				if on.Vanilla.Instructions != off.Vanilla.Instructions {
					t.Errorf("sanitizer perturbed instruction count: on=%d off=%d",
						on.Vanilla.Instructions, off.Vanilla.Instructions)
				}
				rep := on.Vanilla.SanitizeReport
				if rep == nil {
					t.Fatal("Options.VM.Sanitize set but SanitizeReport is nil")
				}
				if on.Vanilla.Emulated > 0 && rep.Samples == 0 {
					t.Errorf("run emulated %d scalars but the sanitizer observed none",
						on.Vanilla.Emulated)
				}
			})
		}
	}
}
