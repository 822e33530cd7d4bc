package sanitize_test

// FuzzSanitize drives the sanitizer with progen's random-but-well-formed FP
// programs and checks the properties that must hold for every program:
//
//   - no panic anywhere under the sanitizer (the fuzzer's implicit gate);
//   - arming the sanitizer never changes guest output or modeled cycles;
//   - certify-mode enclosures contain the architectural outputs — no
//     output is ever "violated" (NaN cases are indeterminate, not failures);
//   - measured error bounds are monotone under increased shadow precision:
//     a 192-bit shadow measures at least what a 96-bit shadow did, minus a
//     one-bit slack for the low shadow's own noise floor. The property only
//     holds inside the low shadow's trust band: a 96-bit shadow has 43 bits
//     of headroom over binary64, so once a site's measured loss approaches
//     that, the low shadow's own error can dominate the measurement (and
//     special values — overflow to Inf along one shadow but not the other —
//     void relative-error semantics entirely). Sites beyond 40 measured
//     bits are therefore exempt from the comparison.

import (
	"math/rand"
	"testing"

	"fpvm/internal/arith"
	"fpvm/internal/progen"
	"fpvm/internal/sanitize"
	"fpvm/internal/session"
)

func FuzzSanitize(f *testing.F) {
	for _, s := range progen.Seeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		prog, err := progen.FPProgram(rand.New(rand.NewSource(seed)), progen.DefaultFPLen)
		if err != nil {
			t.Fatalf("progen program must assemble: %v", err)
		}
		img := mustImage(t, prog)
		sess := session.New()

		plain, err := sess.Run(img, session.Config{System: arith.Vanilla{}})
		if err != nil {
			t.Fatalf("plain run: %v", err)
		}

		run := func(prec uint) session.Result {
			res, err := sess.Run(img, session.Config{
				System:       arith.Vanilla{},
				Certify:      true,
				SanitizePrec: prec,
			})
			if err != nil {
				t.Fatalf("sanitized run (prec %d): %v", prec, err)
			}
			if res.Sanitize == nil || res.Sanitize.Certification == nil {
				t.Fatalf("certify run (prec %d) returned no certification", prec)
			}
			if res.Output != plain.Output {
				t.Errorf("prec %d: sanitizer changed guest output:\n  on:  %q\n  off: %q",
					prec, res.Output, plain.Output)
			}
			if res.Cycles != plain.Cycles {
				t.Errorf("prec %d: sanitizer changed modeled cycles: on=%d off=%d",
					prec, res.Cycles, plain.Cycles)
			}
			return res
		}

		lo, hi := run(96), run(192)

		for _, res := range []session.Result{lo, hi} {
			c := res.Sanitize.Certification
			for i, o := range c.Outputs {
				if o.Status == sanitize.StatusViolated {
					t.Errorf("prec %d: out[%d] = %g escapes its enclosure [%g, %g]",
						res.Sanitize.Prec, i, o.Value, o.Lo, o.Hi)
				}
			}
			if !c.Pass() {
				t.Errorf("prec %d: certification failed: %d violated, %d dropped, truncated=%v",
					res.Sanitize.Prec, c.Violated, c.Dropped, c.Truncated)
			}
		}

		// Precision monotonicity: the higher shadow may only reveal more
		// loss, never less (beyond the low shadow's own noise), for sites
		// inside the low shadow's trust band.
		const trustBand = 40.0
		for _, ls := range lo.Sanitize.Sites {
			hs, ok := hi.Sanitize.Site(ls.PC)
			if !ok {
				t.Errorf("site %#x observed at prec 96 but not at 192", ls.PC)
				continue
			}
			if ls.MaxLostBits > trustBand {
				continue
			}
			if hs.MaxLostBits < ls.MaxLostBits-1.0 {
				t.Errorf("site %#x: lost bits shrank with precision: 96-bit=%.2f 192-bit=%.2f",
					ls.PC, ls.MaxLostBits, hs.MaxLostBits)
			}
		}
	})
}
