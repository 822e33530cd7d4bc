// Package chaos is the resilience proof for the graceful-degradation engine:
// it sweeps every workload through seeded fault-injection campaigns and
// enforces hard invariants that turn the paper's §4.1–4.2 escape-hatch claim
// into a testable property. The invariants, per run:
//
//   - no panic escapes the runtime (every failure is classified and either
//     degraded or reported as an ordinary machine fault);
//   - the run terminates within its instruction budget;
//   - with error-seam injection only (no payload corruption), the degraded
//     Vanilla run is BIT-IDENTICAL to native execution — degradation falls
//     back to the same masked IEEE semantics the hardware would have used,
//     so absorbing a fault may cost cycles but never changes an output bit;
//   - no NaN-box leaks: after the final demote pass and a closing GC sweep,
//     zero shadow cells survive and zero boxed patterns remain in machine
//     state.
//
// A separate corruption tier scrambles NaN-box payloads to exercise the
// universal-NaN path; there bit-identity cannot hold (a scrambled key *is* a
// value change), so only the no-panic / termination / no-leak invariants
// apply. Every failure message leads with the seed so the exact campaign is
// reproducible with `fpvm-run -chaos -faults seed=N,...`.
package chaos

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"fpvm/internal/arith"
	"fpvm/internal/faultinject"
	"fpvm/internal/fpvm"
	"fpvm/internal/oracle"
	"fpvm/internal/patch"
	"fpvm/internal/session"
)

// Options tunes a chaos sweep.
type Options struct {
	// Targets lists the programs to sweep. nil selects every workload and
	// example (oracle.AllTargets).
	Targets []oracle.Target
	// Seeds is the number of injection seeds per target per tier.
	// 0 selects 2.
	Seeds int
	// BaseSeed is the first seed; run i uses BaseSeed+i.
	BaseSeed uint64
	// Rate is the per-crossing fault probability applied uniformly to every
	// error seam. 0 selects 2e-4 — small enough that runs complete, large
	// enough that realistic workloads degrade hundreds of times.
	Rate float64
	// CorruptRate is the NaN-box corruption probability for the corruption
	// tier. 0 selects 1e-4. Negative disables the corruption tier.
	CorruptRate float64
	// VM is the FPVM configuration of every run. The harness sets System
	// (Vanilla) and Inject (a fresh seeded injector) for each run; everything
	// else applies as given. JITThreshold > 0 exposes the compile seam to
	// injection and arena caps exercise arena-pressure handling. A non-nil
	// Sanitize attaches the numerical sanitizer to the error tier, exposing
	// the sanitize seam: an injected sanitizer failure must truncate the
	// report (typed degradation) while the guest run — still gated on full
	// Vanilla bit-identity — is unharmed.
	VM fpvm.Config
	// PanicRate arms the panic tier (0 leaves it off): every target also runs
	// through a shared session.Pool with the run-panic seam firing at this
	// per-crossing probability. The seam panics inside the trap handler — a
	// failure shape the degradation engine cannot classify — so the tier's
	// invariants live one layer up: the panic never escapes the session's
	// containment (it surfaces as a typed *session.PoisonedError), the pool
	// quarantines every poisoned session and never re-pools one, and the
	// pool's traffic ledger balances exactly at the end of the sweep.
	PanicRate float64
	// MaxInst bounds each run (0 = 20M, far above any workload's length).
	MaxInst uint64
	// Log receives one line per run when non-nil.
	Log io.Writer
}

// Failure describes one violated invariant, with the seed that reproduces it.
type Failure struct {
	Target    string
	Tier      string // "error" or "corrupt"
	Seed      uint64
	Invariant string // which hard invariant broke
	Detail    string
}

func (f Failure) String() string {
	return fmt.Sprintf("seed=%d target=%s tier=%s invariant=%s: %s",
		f.Seed, f.Target, f.Tier, f.Invariant, f.Detail)
}

// Summary aggregates a sweep.
type Summary struct {
	Runs         int
	Degradations uint64
	// Coalesced sums the instructions sequence emulation retired inside a
	// delivery (Options.VM.MaxSequenceLen > 0).
	Coalesced uint64
	// Trace-JIT accounting (Options.VM.JITThreshold > 0): superblock compiles
	// and injected compile failures absorbed as degradations.
	SBCompiled      uint64
	JITDegradations uint64
	// Sanitizer accounting (Options.VM.Sanitize): injected sanitize-seam faults
	// absorbed as report truncation, and how many runs ended truncated.
	SanitizeDegradations uint64
	SanitizeTruncated    uint64
	SanitizeSamples      uint64
	// Panic-tier accounting (Options.PanicRate > 0): injected trap-handler
	// panics contained as PoisonedError, and the pool's quarantine ledger.
	PanicContained uint64
	Poisoned       uint64
	Quarantined    uint64
	Failures       []Failure
}

// Ok reports whether every run upheld every invariant.
func (s *Summary) Ok() bool { return len(s.Failures) == 0 }

// Run executes the chaos sweep.
func Run(o Options) *Summary {
	targets := o.Targets
	if targets == nil {
		targets = oracle.AllTargets()
	}
	if o.Seeds == 0 {
		o.Seeds = 2
	}
	if o.Rate == 0 {
		o.Rate = 2e-4
	}
	if o.CorruptRate == 0 {
		o.CorruptRate = 1e-4
	}
	if o.MaxInst == 0 {
		o.MaxInst = 20_000_000
	}

	s := &Summary{}
	// One pool shared by the whole panic tier, so later targets exercise the
	// post-quarantine replacement path, not just a fresh pool each run.
	var pool *session.Pool
	if o.PanicRate > 0 {
		pool = &session.Pool{}
	}
	for _, t := range targets {
		for i := 0; i < o.Seeds; i++ {
			seed := o.BaseSeed + uint64(i)

			// Error tier: seam faults only. Degradation must be invisible
			// in the outputs — full Vanilla bit-identity plus the leak gate.
			errCfg := faultinject.Config{Seed: seed}.UniformRate(o.Rate)
			if o.VM.JITThreshold > 0 {
				// A superblock compile happens once per hot site, orders of
				// magnitude rarer than the per-delivery seams; a uniform rate
				// would practically never reach it. Boost just that seam so
				// every sweep proves injected compile failures degrade cleanly.
				errCfg.Rate[faultinject.SeamSBCompile] = 0.25
			}
			if o.VM.Sanitize != nil {
				// The sanitize seam truncates once and then stops being
				// crossed, so a high rate just means every sweep proves the
				// truncation path instead of waiting for a rare fire.
				errCfg.Rate[faultinject.SeamSanitize] = 0.25
			}
			s.runOne(t, "error", seed, errCfg, o, true)

			// Corruption tier: scrambled NaN-box payloads drive the
			// universal-NaN path. Values legitimately change, so only the
			// survival invariants apply.
			if o.CorruptRate > 0 {
				corCfg := faultinject.Config{Seed: seed, CorruptRate: o.CorruptRate}
				s.runOne(t, "corrupt", seed, corCfg, o, false)
			}

			// Panic tier: trap-handler panics contained by the session layer.
			if pool != nil {
				s.runPanicTier(t, seed, pool, o)
			}
		}
	}
	if pool != nil {
		ps := pool.Stats()
		s.Poisoned, s.Quarantined = ps.Poisoned, ps.Quarantined
		if ps.Gets != ps.Puts+ps.Quarantined {
			s.Failures = append(s.Failures, Failure{
				Target: "(pool)", Tier: "panic", Seed: o.BaseSeed,
				Invariant: "quarantine-ledger",
				Detail: fmt.Sprintf("gets=%d != puts=%d + quarantined=%d",
					ps.Gets, ps.Puts, ps.Quarantined),
			})
		}
		if ps.Poisoned != s.PanicContained {
			s.Failures = append(s.Failures, Failure{
				Target: "(pool)", Tier: "panic", Seed: o.BaseSeed,
				Invariant: "poison-accounting",
				Detail: fmt.Sprintf("pool saw %d poisoned sessions, tier contained %d panics",
					ps.Poisoned, s.PanicContained),
			})
		}
	}
	return s
}

// runPanicTier executes one seeded run with the run-panic seam armed,
// through the shared pool. Three outcomes are legal: the seam never fired
// and the run is clean; the seam fired and the panic surfaced as a typed
// *session.PoisonedError; or — never — anything else.
func (s *Summary) runPanicTier(t oracle.Target, seed uint64, pool *session.Pool, o Options) {
	s.Runs++
	fail := func(invariant, detail string) {
		s.Failures = append(s.Failures, Failure{
			Target: t.Name, Tier: "panic", Seed: seed,
			Invariant: invariant, Detail: detail,
		})
	}

	prog, err := t.Build()
	if err != nil {
		fail("build", err.Error())
		return
	}
	img, err := patch.NewImage(prog)
	if err != nil {
		fail("build", err.Error())
		return
	}
	icfg := faultinject.Config{Seed: seed}
	icfg.Rate[faultinject.SeamRunPanic] = o.PanicRate
	inj := faultinject.New(icfg)

	res, runErr, escaped := func() (res session.Result, err error, escaped string) {
		defer func() {
			if r := recover(); r != nil {
				escaped = fmt.Sprint(r)
			}
		}()
		cfg := session.Config{Config: o.VM, MaxInst: o.MaxInst}
		cfg.System = arith.Vanilla{}
		cfg.Inject = inj
		res, err = pool.Run(img, cfg)
		return
	}()

	verdict := "ok"
	switch {
	case escaped != "":
		// The one unforgivable outcome: the session containment leaked.
		fail("no-panic-escape", fmt.Sprintf("panic escaped pool.Run: %s", escaped))
		verdict = "FAIL"
	case runErr != nil:
		var pe *session.PoisonedError
		if errors.As(runErr, &pe) {
			s.PanicContained++
			verdict = "contained"
		} else {
			fail("panic-classified", fmt.Sprintf("unexpected error: %v", runErr))
			verdict = "FAIL"
		}
	case inj.Fired[faultinject.SeamRunPanic] > 0:
		// The seam fired but the run reported success — containment must
		// never silently swallow a poisoned run's harvest as healthy.
		fail("panic-classified", fmt.Sprintf(
			"run-panic fired %d times yet the run returned no error",
			inj.Fired[faultinject.SeamRunPanic]))
		verdict = "FAIL"
	case res.Fault != "":
		fail("panic-tier-clean", fmt.Sprintf("unfired run faulted: %s", res.Fault))
		verdict = "FAIL"
	}

	if o.Log != nil {
		fmt.Fprintf(o.Log, "chaos %-34s tier=panic   seed=%-4d inject[%s] %s\n",
			t.Name, seed, inj.Summary(), verdict)
	}
}

// runOne executes one seeded campaign and checks its tier's invariants.
func (s *Summary) runOne(t oracle.Target, tier string, seed uint64,
	cfg faultinject.Config, o Options, wantIdentical bool) {
	s.Runs++
	failuresBefore := len(s.Failures)
	fail := func(invariant, detail string) {
		s.Failures = append(s.Failures, Failure{
			Target: t.Name, Tier: tier, Seed: seed,
			Invariant: invariant, Detail: detail,
		})
	}

	rep, err := func() (rep *oracle.Report, err error) {
		// The no-panic invariant is checked here, not assumed: a panic
		// anywhere under the trap handlers is converted to a failure
		// carrying the reproducing seed.
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		return oracle.Run(t, oracle.Options{
			// Empty non-nil slice: Vanilla only. The bit-exactness gate is
			// the invariant; shadow systems would only slow the sweep.
			Systems: []arith.System{},
			MaxInst: o.MaxInst,
			VM:      o.VM,
			Inject:  &cfg,
		})
	}()

	var v *oracle.SystemReport
	switch {
	case err == nil:
		v = rep.Vanilla
		s.Degradations += v.Degradations
		s.Coalesced += v.Coalesced
		s.SBCompiled += v.SBCompiled
		s.JITDegradations += v.JITDegradations
		s.SanitizeDegradations += v.SanitizeDegradations
		if r := v.SanitizeReport; r != nil {
			s.SanitizeSamples += r.Samples
			if r.Truncated {
				s.SanitizeTruncated++
			}
		}
		if wantIdentical && !v.BitIdentical() {
			fail("bit-identical", fmt.Sprintf(
				"degraded Vanilla diverged from native (first PC %#x op %s; inject %s)",
				v.FirstDivergencePC, v.FirstDivergenceOp, v.InjectSummary))
		}
		if v.ArenaLive != 0 || v.LeakedBoxes != 0 {
			fail("no-leaks", fmt.Sprintf("arena live=%d, boxed patterns=%d after final sweep",
				v.ArenaLive, v.LeakedBoxes))
		}
	case tier == "corrupt" && strings.Contains(err.Error(), "budget"):
		// A corrupted guest may legitimately never converge (a scrambled
		// box is a value change, and convergence tests eat the resulting
		// NaN). The invariant is that the harness regains control within
		// its bounded budget — which it just did.
	default:
		fail("terminates", err.Error())
	}

	if o.Log != nil {
		verdict := "ok"
		if len(s.Failures) > failuresBefore {
			verdict = "FAIL"
		}
		if v != nil {
			fmt.Fprintf(o.Log, "chaos %-34s tier=%-7s seed=%-4d degradations=%-6d inject[%s] %s\n",
				t.Name, tier, seed, v.Degradations, v.InjectSummary, verdict)
		} else {
			fmt.Fprintf(o.Log, "chaos %-34s tier=%-7s seed=%-4d %s (%v)\n",
				t.Name, tier, seed, verdict, err)
		}
	}
}

// WriteReport renders the sweep outcome; failed runs print their reproducing
// seeds first.
func (s *Summary) WriteReport(w io.Writer) {
	for _, f := range s.Failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	verdict := "PASS"
	if !s.Ok() {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "chaos: %s — %d runs, %d degradations absorbed, %d invariant violations\n",
		verdict, s.Runs, s.Degradations, len(s.Failures))
	if s.Coalesced > 0 {
		fmt.Fprintf(w, "chaos: seqemu — %d instructions coalesced into deliveries\n", s.Coalesced)
	}
	if s.SBCompiled > 0 || s.JITDegradations > 0 {
		fmt.Fprintf(w, "chaos: jit tier — %d superblocks compiled, %d compile faults degraded\n",
			s.SBCompiled, s.JITDegradations)
	}
	if s.SanitizeDegradations > 0 || s.SanitizeTruncated > 0 {
		fmt.Fprintf(w, "chaos: sanitize — %d samples, %d injected faults truncated %d reports (guest runs unharmed)\n",
			s.SanitizeSamples, s.SanitizeDegradations, s.SanitizeTruncated)
	}
	if s.PanicContained > 0 || s.Quarantined > 0 {
		fmt.Fprintf(w, "chaos: panic tier — %d trap-handler panics contained, %d sessions poisoned, %d quarantined (process uninterrupted)\n",
			s.PanicContained, s.Poisoned, s.Quarantined)
	}
}
