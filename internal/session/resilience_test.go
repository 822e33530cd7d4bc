package session_test

import (
	"bytes"
	"errors"
	"fmt"
	"fpvm/internal/session"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"fpvm/internal/arith"
	"fpvm/internal/asm"
	"fpvm/internal/faultinject"
	"fpvm/internal/fpvm"
	"fpvm/internal/machine"
	"fpvm/internal/patch"
)

// fpSrc is a small FP guest: a few hundred trap deliveries, then a clean
// halt. Enough crossings that any armed seam fires, short enough that the
// race test can run it thousands of times.
const fpSrc = `
.data
x: .f64 1.5
.text
	mov r0, $0
	movsd f0, [x]
step:
	addsd f0, =0.25
	mulsd f0, =0.999
	inc r0
	cmp r0, $200
	jl step
	outf f0
	halt
`

// spinSrc never halts: only a budget or a deadline can stop it.
const spinSrc = `
	mov r0, $0
loop:
	inc r0
	jmp loop
`

func mustProg(t *testing.T, src string) *machine.Image {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return mustImage(t, p)
}

// panicInjector arms only the run-panic seam: the first FP trap delivery
// panics inside the trap handler, the shape of a runtime bug the degradation
// engine cannot classify.
func panicInjector(seed uint64) *faultinject.Injector {
	cfg := faultinject.Config{Seed: seed}
	cfg.Rate[faultinject.SeamRunPanic] = 1
	return faultinject.New(cfg)
}

func TestPanicContainedAsPoisonedError(t *testing.T) {
	prog := mustProg(t, fpSrc)
	s := session.New()
	cfg := baseConfig()
	cfg.Inject = panicInjector(1)

	_, err := s.Run(prog, cfg)
	var pe *session.PoisonedError
	if !errors.As(err, &pe) {
		t.Fatalf("Run with run-panic armed = %v, want *PoisonedError", err)
	}
	if !strings.Contains(pe.PanicValue, "run-panic") {
		t.Errorf("PanicValue = %q, want the injected panic message", pe.PanicValue)
	}
	if pe.Stack == "" {
		t.Error("PoisonedError.Stack is empty; want the recovery-point stack")
	}
	if !s.Poisoned() {
		t.Error("session did not latch poisoned after a contained panic")
	}

	// Defense in depth: a poisoned session refuses to run again even if a
	// caller bypasses the pool.
	if _, err := s.Run(prog, baseConfig()); !errors.Is(err, session.ErrPoisonedReuse) {
		t.Errorf("poisoned reuse = %v, want ErrPoisonedReuse", err)
	}
}

func TestPoolQuarantinesPoisonedSession(t *testing.T) {
	prog := mustProg(t, fpSrc)
	var p session.Pool

	// Warm the pool with one clean run.
	if _, err := p.Run(prog, baseConfig()); err != nil {
		t.Fatalf("clean run: %v", err)
	}

	// Poison a session through the pool and keep its pointer.
	bad := p.Get()
	cfg := baseConfig()
	cfg.Inject = panicInjector(2)
	if _, err := bad.Run(prog, cfg); err == nil {
		t.Fatal("expected a PoisonedError")
	}
	p.Put(bad)

	st := p.Stats()
	if st.Poisoned != 1 || st.Quarantined != 1 {
		t.Fatalf("stats after poison: %+v, want poisoned=1 quarantined=1", st)
	}
	if st.Gets != st.Puts+st.Quarantined {
		t.Errorf("ledger does not balance: gets=%d puts=%d quarantined=%d", st.Gets, st.Puts, st.Quarantined)
	}

	// The quarantined pointer must never come back out of the pool.
	for i := 0; i < 64; i++ {
		s := p.Get()
		if s == bad {
			t.Fatal("pool handed out a quarantined session")
		}
		if s.Poisoned() {
			t.Fatal("pool handed out a poisoned session")
		}
		p.Put(s)
	}
	if rep, news := p.Stats().Replaced, p.Stats().News; rep > news {
		t.Errorf("Replaced=%d exceeds News=%d; replacements must be a subset of constructions", rep, news)
	}
}

func TestPoolQuarantinesChronicDegrader(t *testing.T) {
	prog := mustProg(t, fpSrc)
	var p session.Pool

	// Decode faults at rate 1: every trap degrades, so every run extends the
	// streak. Runs still complete (degradation re-executes natively).
	degrading := func(seed uint64) session.Config {
		cfg := baseConfig()
		icfg := faultinject.Config{Seed: seed}
		icfg.Rate[faultinject.SeamDecode] = 1
		cfg.Inject = faultinject.New(icfg)
		return cfg
	}

	s := p.Get()
	for i := 0; i < session.DefaultQuarantineStreak; i++ {
		res, err := s.Run(prog, degrading(uint64(i)+1))
		if err != nil {
			t.Fatalf("degrading run %d: %v", i, err)
		}
		if res.VM.Degradations == 0 {
			t.Fatalf("degrading run %d absorbed no degradations; the streak test needs them", i)
		}
	}
	if got := s.DegradedStreak(); got != session.DefaultQuarantineStreak {
		t.Fatalf("DegradedStreak = %d, want %d", got, session.DefaultQuarantineStreak)
	}
	p.Put(s)
	if st := p.Stats(); st.Quarantined != 1 || st.Poisoned != 0 {
		t.Fatalf("stats after chronic degrader: %+v, want quarantined=1 poisoned=0", st)
	}

	// A clean run clears the streak: that session is pooled normally.
	s2 := p.Get()
	if _, err := s2.Run(prog, degrading(session.DefaultQuarantineStreak+1)); err != nil {
		t.Fatalf("single degrading run: %v", err)
	}
	if _, err := s2.Run(prog, baseConfig()); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if got := s2.DegradedStreak(); got != 0 {
		t.Fatalf("clean run did not clear the streak: %d", got)
	}
	p.Put(s2)
	if st := p.Stats(); st.Quarantined != 1 {
		t.Fatalf("healthy session was quarantined: %+v", st)
	}
}

func TestSessionDeadlineExceeded(t *testing.T) {
	prog := mustProg(t, spinSrc)
	var cancel atomic.Bool
	cancel.Store(true)
	cfg := baseConfig()
	cfg.Cancel = &cancel

	res, err := session.New().Run(prog, cfg)
	if err != nil {
		t.Fatalf("deadline run errored: %v", err)
	}
	if !res.DeadlineExceeded {
		t.Fatal("Result.DeadlineExceeded not set")
	}
	if res.BudgetExhausted || res.Fault != "" {
		t.Errorf("deadline truncation misclassified: budget=%v fault=%q", res.BudgetExhausted, res.Fault)
	}
	const every = machine.DefaultPreemptEvery
	if res.Instructions < every || res.Instructions >= 2*every {
		t.Errorf("harvested %d instructions, want one checkpoint window [%d, %d)", res.Instructions, every, 2*every)
	}
}

// TestDeadlineMatchesManualPipeline pins that the session layer adds nothing
// to the deadline semantics: a session-truncated run and a hand-assembled
// machine+patch+VM pipeline (the one-shot shape) stop at the same instruction
// boundary with identical harvested stats, so CLI and service timeouts are
// the same mechanism.
func TestDeadlineMatchesManualPipeline(t *testing.T) {
	prog := mustProg(t, spinSrc)

	var sc atomic.Bool
	sc.Store(true)
	cfg := baseConfig()
	cfg.Cancel = &sc
	res, err := session.New().Run(prog, cfg)
	if err != nil || !res.DeadlineExceeded {
		t.Fatalf("session run: err=%v deadline=%v", err, res.DeadlineExceeded)
	}

	// The manual pipeline, assembled by hand as the one-shot root API does.
	raw, err := machine.NewImage(prog.Program(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	m, err := machine.NewFromImage(raw, &out, testMemSize)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := patch.Apply(prog.Program(), nil)
	if err != nil {
		t.Fatal(err)
	}
	pt.Install(m)
	fpvm.Attach(m, fpvm.Config{System: arith.Vanilla{}})
	var mc atomic.Bool
	mc.Store(true)
	m.Preempt = &mc
	var de *machine.DeadlineError
	if err := m.Run(session.DefaultMaxInst); !errors.As(err, &de) {
		t.Fatalf("manual run = %v, want *DeadlineError", err)
	}

	if res.Instructions != m.Stats.Instructions {
		t.Errorf("instructions: session %d vs manual %d", res.Instructions, m.Stats.Instructions)
	}
	if res.Cycles != m.Cycles {
		t.Errorf("cycles: session %d vs manual %d", res.Cycles, m.Cycles)
	}
	if res.Output != out.String() {
		t.Errorf("output diverged: session %q vs manual %q", res.Output, out.String())
	}
}

// TestQuarantineStateNeverLeaks pins the isolation claim behind quarantine:
// after a poisoned session is retired, a later tenant's run of a clean
// program through the same pool is bit-identical — output, cycles, counters —
// to the pre-poison baseline. Nothing of the poisoned session's arena or
// NaN-box state is reachable from the replacement.
func TestQuarantineStateNeverLeaks(t *testing.T) {
	prog := mustProg(t, fpSrc)
	var p session.Pool

	baseline, err := p.Run(prog, baseConfig())
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	cfg := baseConfig()
	cfg.Inject = panicInjector(7)
	if _, err := p.Run(prog, cfg); err == nil {
		t.Fatal("expected poisoned run to error")
	}

	after, err := p.Run(prog, baseConfig())
	if err != nil {
		t.Fatalf("post-quarantine run: %v", err)
	}
	baseline.VM.GC.LastWall, after.VM.GC.LastWall = 0, 0
	if baseline.Output != after.Output {
		t.Errorf("output diverged after quarantine:\nbefore: %q\nafter:  %q", baseline.Output, after.Output)
	}
	if baseline.Cycles != after.Cycles {
		t.Errorf("cycles diverged after quarantine: %d vs %d", baseline.Cycles, after.Cycles)
	}
	if baseline.VM != after.VM {
		t.Errorf("VM stats diverged after quarantine:\nbefore: %+v\nafter:  %+v", baseline.VM, after.VM)
	}
	if !reflect.DeepEqual(baseline.Machine, after.Machine) {
		t.Errorf("machine stats diverged after quarantine:\nbefore: %+v\nafter:  %+v", baseline.Machine, after.Machine)
	}
}

// TestPoolQuarantineRace exercises concurrent checkout / poison / quarantine
// cycles under -race: many workers, a fraction of whose runs panic, all
// through one pool. Invariants: Get never observes a poisoned session, every
// panic surfaces as a PoisonedError (never escapes), and the traffic ledger
// balances exactly once the pool is idle.
func TestPoolQuarantineRace(t *testing.T) {
	prog := mustProg(t, fpSrc)
	var p session.Pool
	const (
		workers = 8
		iters   = 25
	)
	var poisonedRuns atomic.Uint64
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s := p.Get()
				if s.Poisoned() {
					errs <- errors.New("Get returned a poisoned session")
					p.Put(s)
					continue
				}
				cfg := baseConfig()
				poisonRun := (w*iters+i)%5 == 0
				if poisonRun {
					cfg.Inject = panicInjector(uint64(w*1000 + i))
				}
				res, err := s.Run(prog, cfg)
				switch {
				case poisonRun:
					var pe *session.PoisonedError
					if !errors.As(err, &pe) {
						errs <- fmt.Errorf("poison run: err=%v, want *PoisonedError", err)
					} else {
						poisonedRuns.Add(1)
					}
				case err != nil:
					errs <- fmt.Errorf("clean run: %v", err)
				case res.Fault != "":
					errs <- fmt.Errorf("clean run faulted: %s", res.Fault)
				}
				p.Put(s)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := p.Stats()
	if st.Gets != uint64(workers*iters) {
		t.Errorf("gets = %d, want %d", st.Gets, workers*iters)
	}
	if st.Gets != st.Puts+st.Quarantined {
		t.Errorf("ledger does not balance: gets=%d puts=%d quarantined=%d", st.Gets, st.Puts, st.Quarantined)
	}
	if st.Poisoned != poisonedRuns.Load() {
		t.Errorf("poisoned = %d, want %d (one per contained panic)", st.Poisoned, poisonedRuns.Load())
	}
	if st.Quarantined < st.Poisoned {
		t.Errorf("quarantined=%d < poisoned=%d; every poison must quarantine", st.Quarantined, st.Poisoned)
	}
	if st.Replaced > st.News {
		t.Errorf("replaced=%d exceeds news=%d", st.Replaced, st.News)
	}
}
