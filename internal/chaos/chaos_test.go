package chaos

import (
	"bytes"
	"testing"

	"fpvm/internal/fpvm"
	"fpvm/internal/oracle"
	"fpvm/internal/sanitize"
)

// TestChaosQuick sweeps a fast subset of targets through both tiers with
// every resilience knob armed — the suite the ordinary `go test ./...` run
// executes. The full-target sweep with more seeds runs under `make chaos`.
func TestChaosQuick(t *testing.T) {
	var targets []oracle.Target
	for _, name := range []string{
		"example:quickstart/harmonic",
		"workload:FBench",
		"workload:NAS LU/Class S",
	} {
		tg, err := oracle.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, tg)
	}
	var log bytes.Buffer
	s := Run(Options{
		Targets: targets,
		Seeds:   2,
		Rate:    1e-3,
		VM:      fpvm.Config{ArenaSoftCap: 1 << 14, ArenaHardCap: 1 << 15},
		Log:     &log,
	})
	if !s.Ok() {
		s.WriteReport(&log)
		t.Fatalf("chaos invariants violated:\n%s", log.String())
	}
	if s.Runs != len(targets)*2*2 {
		t.Fatalf("ran %d campaigns, want %d", s.Runs, len(targets)*2*2)
	}
	if s.Degradations == 0 {
		t.Fatal("sweep absorbed no degradations — injection not reaching the runtime")
	}
}

// TestChaosJIT reruns the quick sweep with the trace-JIT superblock tier
// armed at an aggressive threshold: fault injection now reaches the
// compile/bind seam, every injected compile failure must be classified as a
// typed degradation (no panics), and the error tier's bit-identity invariant
// must survive superblock multi-retires exactly as it does classic
// deliveries.
func TestChaosJIT(t *testing.T) {
	var targets []oracle.Target
	for _, name := range []string{
		"example:quickstart/harmonic",
		"workload:FBench",
		"workload:Lorenz Attractor",
	} {
		tg, err := oracle.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, tg)
	}
	var log bytes.Buffer
	s := Run(Options{
		Targets: targets,
		Seeds:   3,
		Rate:    1e-3,
		VM:      fpvm.Config{JITThreshold: 2, ArenaSoftCap: 1 << 14, ArenaHardCap: 1 << 15},
		Log:     &log,
	})
	if !s.Ok() {
		s.WriteReport(&log)
		t.Fatalf("chaos invariants violated with jit armed:\n%s", log.String())
	}
	if s.Degradations == 0 {
		t.Fatal("sweep absorbed no degradations — injection not reaching the runtime")
	}
	if s.SBCompiled == 0 {
		t.Fatal("jit tier never compiled a superblock — threshold not reaching hot sites")
	}
	if s.JITDegradations == 0 {
		t.Fatal("no injected compile failures — the sb-compile seam is not under chaos")
	}
}

// TestChaosPanic arms the run-panic seam: injected trap-handler panics must
// be contained by the session layer as typed PoisonedErrors — never escaping
// to the test process — and the shared pool must quarantine every poisoned
// session with a balancing traffic ledger. The tier proves the paper's
// worst-case story: a runtime bug the degradation engine cannot classify
// costs one session, not the service.
func TestChaosPanic(t *testing.T) {
	var targets []oracle.Target
	for _, name := range []string{
		"example:quickstart/harmonic",
		"workload:FBench",
		"workload:Lorenz Attractor",
	} {
		tg, err := oracle.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, tg)
	}
	var log bytes.Buffer
	s := Run(Options{
		Targets:     targets,
		Seeds:       3,
		Rate:        1e-3,
		CorruptRate: -1, // focus the sweep on the error and panic tiers
		PanicRate:   0.02,
		Log:         &log,
	})
	if !s.Ok() {
		s.WriteReport(&log)
		t.Fatalf("chaos invariants violated with run-panic armed:\n%s", log.String())
	}
	if s.PanicContained == 0 {
		t.Fatal("no injected panics contained — the run-panic seam is not under chaos")
	}
	if s.Poisoned != s.PanicContained {
		t.Fatalf("poisoned sessions (%d) != contained panics (%d)", s.Poisoned, s.PanicContained)
	}
	if s.Quarantined < s.Poisoned {
		t.Fatalf("quarantined (%d) < poisoned (%d): a poisoned session escaped the ledger", s.Quarantined, s.Poisoned)
	}
}

// TestChaosFull is the acceptance sweep: every workload and example, enough
// seeds for 50+ runs, with the jit tier armed so the compile seam and the
// cached-trace executor stay under fire across the whole target set. Skipped
// under -short; `make chaos` runs it.
func TestChaosFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full chaos sweep skipped in -short mode (run `make chaos`)")
	}
	var log bytes.Buffer
	s := Run(Options{
		Seeds:       2,
		Rate:        5e-4,
		CorruptRate: 1e-4,
		PanicRate:   0.01,
		VM:          fpvm.Config{JITThreshold: 4, ArenaSoftCap: 1 << 16, ArenaHardCap: 1 << 17},
		Log:         &log,
	})
	t.Logf("\n%s", log.String())
	if !s.Ok() {
		var rep bytes.Buffer
		s.WriteReport(&rep)
		t.Fatalf("chaos invariants violated:\n%s", rep.String())
	}
	if s.Runs < 50 {
		t.Fatalf("acceptance requires >= 50 seeded runs, got %d", s.Runs)
	}
}

// TestChaosSanitize arms the sanitize seam: injected faults at the shadow
// observation layer must degrade as a typed truncation — the report covers
// the prefix and stops, while the guest run itself stays bit-identical to
// native. The corruption tier is disabled (negative rate) so every campaign
// exercises the sanitizer.
func TestChaosSanitize(t *testing.T) {
	var targets []oracle.Target
	for _, name := range []string{
		"example:quickstart/harmonic",
		"workload:FBench",
		"workload:NAS EP/Class S",
	} {
		tg, err := oracle.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, tg)
	}
	var log bytes.Buffer
	s := Run(Options{
		Targets:     targets,
		Seeds:       2,
		Rate:        1e-3,
		CorruptRate: -1, // sanitizer reports are meaningless on corrupted boxes
		VM: fpvm.Config{
			ArenaSoftCap: 1 << 14,
			ArenaHardCap: 1 << 15,
			Sanitize:     &sanitize.Options{},
		},
		Log: &log,
	})
	if !s.Ok() {
		s.WriteReport(&log)
		t.Fatalf("chaos invariants violated with sanitizer armed:\n%s", log.String())
	}
	if s.SanitizeSamples == 0 {
		t.Fatal("sanitizer observed nothing — the wrapper is not attached under chaos")
	}
	if s.SanitizeDegradations == 0 {
		t.Fatal("no sanitize-seam faults fired — the seam is not under chaos")
	}
	if s.SanitizeTruncated == 0 {
		t.Fatal("injected sanitize faults never truncated a report")
	}
}
