package session_test

import (
	"bytes"
	"fmt"
	"fpvm/internal/session"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"fpvm/internal/arith"
	"fpvm/internal/asm"
	"fpvm/internal/fpvm"
	"fpvm/internal/isa"
	"fpvm/internal/machine"
	"fpvm/internal/oracle"
	"fpvm/internal/patch"
	"fpvm/internal/sanitize"
)

// testMemSize keeps pooled guests small and GC scan costs comparable across
// every run in this file (modeled cycles depend on memory geometry).
const testMemSize = 256 << 10

func baseConfig() session.Config {
	return session.Config{Config: fpvm.Config{System: arith.Vanilla{}}, MemSize: testMemSize}
}

// mustImage analyzes and predecodes prog into the image sessions run.
func mustImage(t testing.TB, prog *isa.Program) *machine.Image {
	t.Helper()
	img, err := patch.NewImage(prog)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// buildTargets compiles every fig target once so all sessions share the same
// immutable program images.
func buildTargets(t *testing.T) ([]oracle.Target, []*machine.Image) {
	t.Helper()
	targets := oracle.AllTargets()
	progs := make([]*machine.Image, len(targets))
	for i, tgt := range targets {
		p, err := tgt.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", tgt.Name, err)
		}
		progs[i] = mustImage(t, p)
	}
	return targets, progs
}

// machineState is the architectural state compared between fresh and reused
// sessions: every register, the full memory image, and the control state.
type machineState struct {
	R     [isa.NumIntRegs]int64
	F     [isa.NumFPRegs][2]uint64
	RIP   uint64
	Mem   string // full memory image
	Halt  bool
	Cycle uint64
}

func snapshot(m *machine.Machine) machineState {
	return machineState{
		R:     m.R,
		F:     m.F,
		RIP:   m.RIP,
		Mem:   string(m.Mem),
		Halt:  m.Halted(),
		Cycle: m.Cycles,
	}
}

// requireIdentical asserts two runs of the same program are bit-identical in
// results, counters, and final architectural state.
func requireIdentical(t *testing.T, name string, fresh, reused session.Result, fm, rm *machine.Machine) {
	t.Helper()
	// GC.LastWall is a host wall-clock measurement — the one field of the
	// stats that is legitimately nondeterministic.
	fresh.VM.GC.LastWall, reused.VM.GC.LastWall = 0, 0
	if fresh.Output != reused.Output {
		t.Errorf("%s: output diverged:\nfresh:  %q\nreused: %q", name, fresh.Output, reused.Output)
	}
	if fresh.Cycles != reused.Cycles {
		t.Errorf("%s: modeled cycles diverged: fresh %d, reused %d", name, fresh.Cycles, reused.Cycles)
	}
	if fresh.Instructions != reused.Instructions {
		t.Errorf("%s: instructions diverged: fresh %d, reused %d", name, fresh.Instructions, reused.Instructions)
	}
	if fresh.VM != reused.VM {
		t.Errorf("%s: VM stats diverged:\nfresh:  %+v\nreused: %+v", name, fresh.VM, reused.VM)
	}
	if !reflect.DeepEqual(fresh.Machine, reused.Machine) {
		t.Errorf("%s: machine stats diverged:\nfresh:  %+v\nreused: %+v", name, fresh.Machine, reused.Machine)
	}
	if fresh.CorrectnessSites != reused.CorrectnessSites {
		t.Errorf("%s: correctness sites diverged: fresh %d, reused %d",
			name, fresh.CorrectnessSites, reused.CorrectnessSites)
	}
	fs, rs := snapshot(fm), snapshot(rm)
	if fs != rs {
		if fs.Mem != rs.Mem {
			t.Errorf("%s: final memory images differ", name)
			fs.Mem, rs.Mem = "", ""
		}
		if fs != rs {
			t.Errorf("%s: final machine state diverged:\nfresh:  %+v\nreused: %+v", name, fs, rs)
		}
	}
}

// TestReusedSessionBitIdenticalAllTargets is the tentpole invariant: for
// every fig target, a session that already executed a different program
// produces a run bit-identical — output, modeled cycles, all counters, every
// register, every memory byte — to a fresh session's.
func TestReusedSessionBitIdenticalAllTargets(t *testing.T) {
	targets, progs := buildTargets(t)
	if len(targets) < 16 {
		t.Fatalf("expected at least 16 fig targets, have %d", len(targets))
	}
	reused := session.New()
	for i, tgt := range targets {
		// Dirty the pooled session with a different program (and different
		// memory geometry on odd rounds) before the measured run.
		polluter := progs[(i+1)%len(progs)]
		pcfg := baseConfig()
		if i%2 == 1 {
			pcfg.MemSize = 512 << 10
		}
		if _, err := reused.Run(polluter, pcfg); err != nil {
			t.Fatalf("%s: polluter run: %v", tgt.Name, err)
		}

		fresh := session.New()
		fres, err := fresh.Run(progs[i], baseConfig())
		if err != nil {
			t.Fatalf("%s: fresh run: %v", tgt.Name, err)
		}
		rres, err := reused.Run(progs[i], baseConfig())
		if err != nil {
			t.Fatalf("%s: reused run: %v", tgt.Name, err)
		}
		requireIdentical(t, tgt.Name, fres, rres, fresh.Machine(), reused.Machine())
	}
	if got := reused.Runs(); got != uint64(2*len(targets)) {
		t.Errorf("reused session recorded %d runs, want %d", got, 2*len(targets))
	}
}

// TestObserversInvisibleAllTargets runs every fig target under Vanilla with
// sequence emulation and the trace JIT both armed, once plain and once with
// every observer attached together: the sanitizer, telemetry with a hot-site
// ranking, and a cancel flag that never fires. The observed run must be
// bit-identical to the plain one (output, cycles, every counter, final
// state), and both must print exactly what native execution prints.
func TestObserversInvisibleAllTargets(t *testing.T) {
	targets, progs := buildTargets(t)
	if len(targets) < 16 {
		t.Fatalf("expected at least 16 fig targets, have %d", len(targets))
	}
	for i, tgt := range targets {
		var nout bytes.Buffer
		nm, err := machine.NewFromImage(progs[i], &nout, testMemSize)
		if err != nil {
			t.Fatalf("%s: native machine: %v", tgt.Name, err)
		}
		if err := nm.Run(0); err != nil {
			t.Fatalf("%s: native run: %v", tgt.Name, err)
		}

		plainCfg := baseConfig()
		plainCfg.MaxSequenceLen = 16
		plainCfg.JITThreshold = 8
		observedCfg := plainCfg
		observedCfg.Sanitize = &sanitize.Options{Prec: 64}
		observedCfg.Telemetry = true
		observedCfg.TopSites = 5
		observedCfg.Cancel = new(atomic.Bool)

		plain, observed := session.New(), session.New()
		pres, err := plain.Run(progs[i], plainCfg)
		if err != nil {
			t.Fatalf("%s: plain run: %v", tgt.Name, err)
		}
		ores, err := observed.Run(progs[i], observedCfg)
		if err != nil {
			t.Fatalf("%s: observed run: %v", tgt.Name, err)
		}
		if ores.Sanitize == nil || len(ores.TopSites) == 0 || ores.DeadlineExceeded {
			t.Fatalf("%s: observers not attached as configured (sanitize %v, %d top sites, deadline %v)",
				tgt.Name, ores.Sanitize != nil, len(ores.TopSites), ores.DeadlineExceeded)
		}
		requireIdentical(t, tgt.Name, pres, ores, plain.Machine(), observed.Machine())
		if pres.Output != nout.String() {
			t.Errorf("%s: output differs from native:\nnative: %q\nfpvm:   %q", tgt.Name, nout.String(), pres.Output)
		}
	}
}

// TestSessionMatchesManualPipeline pins that a Session's fresh run equals
// the literal one-shot pipeline assembled by hand (a machine over a bare
// image, patch.Apply's sites installed one by one, fpvm.Attach) — the
// session's load step adds orchestration, not behavior.
func TestSessionMatchesManualPipeline(t *testing.T) {
	tgt, err := oracle.Lookup("FBench")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := tgt.Build()
	if err != nil {
		t.Fatal(err)
	}

	raw, err := machine.NewImage(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	m, err := machine.NewFromImage(raw, &out, testMemSize)
	if err != nil {
		t.Fatal(err)
	}
	p, err := patch.Apply(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Install(m)
	vm := fpvm.Attach(m, fpvm.Config{System: arith.Vanilla{}})
	if err := m.Run(0); err != nil {
		t.Fatalf("manual pipeline: %v", err)
	}

	s := session.New()
	res, err := s.Run(mustImage(t, prog), baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != out.String() {
		t.Errorf("output diverged from manual pipeline:\nmanual:  %q\nsession: %q", out.String(), res.Output)
	}
	if res.Cycles != m.Cycles {
		t.Errorf("cycles diverged from manual pipeline: manual %d, session %d", m.Cycles, res.Cycles)
	}
	want := vm.Stats
	want.GC.LastWall, res.VM.GC.LastWall = 0, 0 // host wall clock, nondeterministic
	if res.VM != want {
		t.Errorf("VM stats diverged from manual pipeline:\nmanual:  %+v\nsession: %+v", want, res.VM)
	}
}

// TestConcurrentSessionsIsolated runs two different workloads concurrently
// through a shared pool with telemetry attached and asserts every result —
// output, cycles, counters, and the full telemetry event trace — equals the
// workload's solo reference run. Identical traces and arena counters mean no
// session ever observed a neighbor's NaN-boxes or telemetry events.
func TestConcurrentSessionsIsolated(t *testing.T) {
	names := []string{"FBench", "Three-Body"}
	refs := make(map[string]session.Result)
	progs := make(map[string]*machine.Image)
	cfg := baseConfig()
	cfg.Telemetry = true
	cfg.TopSites = 3
	for _, n := range names {
		tgt, err := oracle.Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := tgt.Build()
		if err != nil {
			t.Fatal(err)
		}
		progs[n] = mustImage(t, prog)
		ref, err := session.New().Run(progs[n], cfg)
		if err != nil {
			t.Fatalf("%s: reference run: %v", n, err)
		}
		ref.VM.GC.LastWall = 0 // host wall clock, nondeterministic
		refs[n] = ref
	}

	var pool session.Pool
	const workers, iters = 8, 8
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		name := names[w%len(names)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			ref := refs[name]
			for i := 0; i < iters; i++ {
				res, err := pool.Run(progs[name], cfg)
				if err != nil {
					errc <- fmt.Errorf("%s: %v", name, err)
					return
				}
				res.VM.GC.LastWall = 0 // host wall clock, nondeterministic
				if res.Output != ref.Output || res.Cycles != ref.Cycles || res.VM != ref.VM {
					errc <- fmt.Errorf("%s: concurrent result diverged from solo run", name)
					return
				}
				if !bytes.Equal(res.TraceJSONL, ref.TraceJSONL) {
					errc <- fmt.Errorf("%s: telemetry trace contaminated by a concurrent session", name)
					return
				}
				if !reflect.DeepEqual(res.TopSites, ref.TopSites) {
					errc <- fmt.Errorf("%s: top-site ranking contaminated by a concurrent session", name)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if st := pool.Stats(); st.Gets != workers*iters || st.Puts != st.Gets {
		t.Errorf("pool accounting off: %+v, want %d gets = puts", st, workers*iters)
	}
}

// noTrapSrc is a small workload whose FP arithmetic is exact at every step:
// integer-valued sums below 2^53 raise no MXCSR flags, so FPVM is attached
// but never trapped into. This makes the steady-state session overhead
// (reset, reattach, run loop) observable in isolation.
const noTrapSrc = `
	mov r0, $0
	movsd f0, =0.0
loop:
	addsd f0, =1.0
	inc r0
	cmp r0, $512
	jl loop
	halt
`

func buildNoTrap(t testing.TB) *machine.Image {
	t.Helper()
	prog, err := asm.Assemble(noTrapSrc)
	if err != nil {
		t.Fatal(err)
	}
	return mustImage(t, prog)
}

// TestSessionZeroAllocReuse pins the zero-steady-state-allocation contract:
// after warmup, rerunning the same program on a warm session allocates
// nothing.
func TestSessionZeroAllocReuse(t *testing.T) {
	prog := buildNoTrap(t)
	cfg := baseConfig()
	s := session.New()
	for i := 0; i < 3; i++ { // warm: machine, VM
		if _, err := s.Run(prog, cfg); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.Run(prog, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm session run allocates %v objects/op, want 0", allocs)
	}
}

// BenchmarkSessionReuse measures the steady-state cost of one pooled session
// run; -benchmem must report 0 allocs/op.
func BenchmarkSessionReuse(b *testing.B) {
	prog := buildNoTrap(b)
	cfg := baseConfig()
	s := session.New()
	if _, err := s.Run(prog, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(prog, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBudgetDegradesNeverKills pins the quota contract end to end: a run
// that exhausts its instruction budget is harvested, not failed.
func TestBudgetDegradesNeverKills(t *testing.T) {
	tgt, err := oracle.Lookup("FBench")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := tgt.Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig()
	cfg.MaxInst = 1000
	res, err := session.New().Run(mustImage(t, prog), cfg)
	if err != nil {
		t.Fatalf("budget exhaustion must not error: %v", err)
	}
	if !res.BudgetExhausted {
		t.Error("BudgetExhausted not set after truncation")
	}
	if res.Fault != "" {
		t.Errorf("budget truncation recorded as fault %q", res.Fault)
	}
	if res.Instructions != 1000 {
		t.Errorf("harvested %d instructions, want exactly the 1000 budget", res.Instructions)
	}
}

// TestSessionConfigErrors pins the required-field validation.
func TestSessionConfigErrors(t *testing.T) {
	prog := buildNoTrap(t)
	if _, err := session.New().Run(prog, session.Config{}); err == nil {
		t.Error("nil System accepted")
	}
	if _, err := session.New().Run(nil, baseConfig()); err == nil {
		t.Error("nil image accepted")
	}
	plain, err := machine.NewImage(prog.Program(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := session.New().Run(plain, baseConfig()); err == nil {
		t.Error("unanalyzed image accepted without NoPatch")
	}
	cfg := baseConfig()
	cfg.NoPatch = true
	if _, err := session.New().Run(plain, cfg); err != nil {
		t.Errorf("unanalyzed image refused under NoPatch: %v", err)
	}
}

// TestPooledJITCrossTenantStale is the stale-superblock gate: with the
// trace-JIT tier armed, a pooled session cycling between programs with
// different code and different memory geometries must never serve one
// tenant's superblock to the next — every reused run stays bit-identical
// (output, cycles, all SB counters, final state) to a fresh session's.
func TestPooledJITCrossTenantStale(t *testing.T) {
	names := []string{"Lorenz Attractor", "FBench"}
	progs := make([]*machine.Image, len(names))
	for i, n := range names {
		tgt, err := oracle.Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := tgt.Build()
		if err != nil {
			t.Fatal(err)
		}
		progs[i] = mustImage(t, prog)
	}
	cfg := baseConfig()
	cfg.MaxSequenceLen = 16
	cfg.JITThreshold = 2

	reused := session.New()
	for round := 0; round < 4; round++ {
		prog := progs[round%len(progs)]
		// Alternate the guest geometry so the dense caches resize between
		// tenants as well as refill.
		rcfg := cfg
		if round%2 == 1 {
			rcfg.MemSize = 512 << 10
		}
		fresh := session.New()
		fres, err := fresh.Run(prog, rcfg)
		if err != nil {
			t.Fatalf("round %d: fresh run: %v", round, err)
		}
		rres, err := reused.Run(prog, rcfg)
		if err != nil {
			t.Fatalf("round %d: reused run: %v", round, err)
		}
		if fres.Machine.SBCompiled == 0 || fres.Machine.SBHits == 0 {
			t.Fatalf("round %d: premise broken — no superblock activity (%+v)", round, fres.Machine)
		}
		requireIdentical(t, names[round%len(progs)], fres, rres, fresh.Machine(), reused.Machine())
	}
}

// TestConcurrentPooledJITIsolated reruns the concurrency isolation gate with
// the trace-JIT tier armed (run under -race by `go test`): concurrent tenants
// sharing a pool must each reproduce their solo reference run exactly,
// superblock counters included — proving the per-VM caches never leak across
// goroutines or pooled reuses.
func TestConcurrentPooledJITIsolated(t *testing.T) {
	names := []string{"Lorenz Attractor", "FBench"}
	refs := make(map[string]session.Result)
	progs := make(map[string]*machine.Image)
	cfg := baseConfig()
	cfg.MaxSequenceLen = 16
	cfg.JITThreshold = 2
	for _, n := range names {
		tgt, err := oracle.Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := tgt.Build()
		if err != nil {
			t.Fatal(err)
		}
		progs[n] = mustImage(t, prog)
		ref, err := session.New().Run(progs[n], cfg)
		if err != nil {
			t.Fatalf("%s: reference run: %v", n, err)
		}
		if ref.Machine.SBCompiled == 0 {
			t.Fatalf("%s: premise broken — jit tier never engaged", n)
		}
		ref.VM.GC.LastWall = 0 // host wall clock, nondeterministic
		refs[n] = ref
	}

	var pool session.Pool
	const workers, iters = 8, 8
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		name := names[w%len(names)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			ref := refs[name]
			for i := 0; i < iters; i++ {
				res, err := pool.Run(progs[name], cfg)
				if err != nil {
					errc <- fmt.Errorf("%s: %v", name, err)
					return
				}
				res.VM.GC.LastWall = 0 // host wall clock, nondeterministic
				if res.Output != ref.Output || res.Cycles != ref.Cycles || res.VM != ref.VM {
					errc <- fmt.Errorf("%s: concurrent jit result diverged from solo run", name)
					return
				}
				if !reflect.DeepEqual(res.Machine, ref.Machine) {
					errc <- fmt.Errorf("%s: superblock counters diverged from solo run: %+v vs %+v",
						name, res.Machine, ref.Machine)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestPoolReuse pins that the pool actually recycles sessions and counts
// traffic.
func TestPoolReuse(t *testing.T) {
	prog := buildNoTrap(t)
	var pool session.Pool
	for i := 0; i < 5; i++ {
		if _, err := pool.Run(prog, baseConfig()); err != nil {
			t.Fatal(err)
		}
	}
	st := pool.Stats()
	if st.Gets != 5 || st.Puts != 5 {
		t.Errorf("pool stats %+v, want 5 gets and 5 puts", st)
	}
	// Sequential churn must reuse the single idle session, not construct 5.
	if st.News == 5 {
		t.Errorf("pool constructed a fresh session for every run (%d news)", st.News)
	}
}
