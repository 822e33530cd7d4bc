package session

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"fpvm/internal/arith"
	"fpvm/internal/asm"
	"fpvm/internal/faultinject"
	"fpvm/internal/fpvm"
	"fpvm/internal/machine"
	"fpvm/internal/posit"
	"fpvm/internal/telemetry"
)

// sharedHotSrc is the shared-cache workload: two trapping sites per iteration
// (the inexact divsd and mulsd) so the warm cache publishes two traces, and
// enough iterations that most visits run through a compiled or adopted one.
// The div label marks the entry of the first trace.
const sharedHotSrc = `
	mov r0, $0
loop:
	movsd f0, =1.0
div:
	divsd f0, =3.0
	movsd f1, f0
	inc r1
	mulsd f1, =1.7
	movsd f2, f1
	inc r0
	cmp r0, $60
	jl loop
	outf f0
	outf f1
	outf f2
	halt
`

func buildSharedHot(t testing.TB) *machine.Image {
	t.Helper()
	prog, err := asm.Assemble(sharedHotSrc)
	if err != nil {
		t.Fatal(err)
	}
	return mustImage(t, prog)
}

// TestSharedCacheWarmCheckouts pins the warm-pool contract at the session
// layer: with a shared SBCache on the config, only the first run over a
// program compiles; every later checkout adopts the published traces (zero
// SBCompiled), serves every entry, and stays bit-identical in guest-visible
// behavior to the classic per-session JIT run.
func TestSharedCacheWarmCheckouts(t *testing.T) {
	prog := buildSharedHot(t)
	base := baseConfig()
	base.JITThreshold = 2

	ref, err := New().Run(prog, base)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Machine.SBCompiled != 2 {
		t.Fatalf("premise broken: reference compiled %d blocks, want 2", ref.Machine.SBCompiled)
	}

	shared := base
	shared.SBCache = fpvm.NewSBCache()
	var pool Pool
	first, err := pool.Run(prog, shared)
	if err != nil {
		t.Fatal(err)
	}
	if first.Machine.SBCompiled != 2 {
		t.Fatalf("first tenant compiled %d blocks, want 2", first.Machine.SBCompiled)
	}
	for i := 0; i < 4; i++ {
		res, err := pool.Run(prog, shared)
		if err != nil {
			t.Fatal(err)
		}
		if res.Output != ref.Output {
			t.Fatalf("warm checkout %d output diverged:\nref:  %q\nwarm: %q", i, ref.Output, res.Output)
		}
		if res.Instructions != ref.Instructions {
			t.Fatalf("warm checkout %d retired %d instructions, ref %d", i, res.Instructions, ref.Instructions)
		}
		if res.Machine.SBCompiled != 0 {
			t.Fatalf("warm checkout %d compiled %d blocks, want 0", i, res.Machine.SBCompiled)
		}
		if res.Machine.SBHits <= ref.Machine.SBHits {
			t.Fatalf("warm checkout %d SBHits %d not above cold run's %d (warm-up not skipped)",
				i, res.Machine.SBHits, ref.Machine.SBHits)
		}
		if res.Cycles >= ref.Cycles {
			t.Fatalf("warm checkout %d not cheaper: %d vs %d cycles", i, res.Cycles, ref.Cycles)
		}
	}
	if s := shared.SBCache.Stats(); s.Stores != 2 || s.Adopted == 0 {
		t.Fatalf("cache accounting off: %+v", s)
	}
}

// TestSharedCacheIsolationUnderRace is the cross-tenant staleness suite: many
// pooled tenants share one warm SBCache over one program image.
// Plain tenants adopt the published traces, coalescing tenants run uncached
// traces around the adopted ones, and faulty tenants change their own VM and
// machine state mid-trace: every allocation at the div entry fails, so each
// visit of the adopted div trace degrades that step natively and cuts the
// trace over the shared thunks. No tenant's state may leak into a concurrent
// tenant: every run's guest-visible output and retirement count must match
// the classic reference. Run under -race this is also the data-race gate on
// the shared cache itself. A fully warm adopter never writes its side table
// mid-run; the side-table-write edge (a trace body shadowed mid-run, then
// revalidated) is raced at the fpvm layer by TestSBCacheConcurrentTenants.
func TestSharedCacheIsolationUnderRace(t *testing.T) {
	prog := buildSharedHot(t)
	base := baseConfig()
	base.JITThreshold = 2

	ref, err := New().Run(prog, base)
	if err != nil {
		t.Fatal(err)
	}

	cache := fpvm.NewSBCache()
	variants := []Config{base, base, base}
	variants[0].SBCache = cache // plain warm adopter
	variants[1].SBCache = cache // warm adopter that also coalesces
	variants[1].MaxSequenceLen = 8
	variants[2].SBCache = cache // faulty adopter: degrades inside the div trace
	// An injector is stateful, so each run of the faulty tenant gets its own.
	divFaults := faultinject.Config{Sites: map[uint64]faultinject.Seam{
		prog.Program().Symbols["div"]: faultinject.SeamArenaAlloc,
	}}
	faulty := func() Config {
		cfg := variants[2]
		cfg.Inject = faultinject.New(divFaults)
		return cfg
	}

	// Warm the cache before the race, so every faulty run adopts both
	// traces at attach and its faults land inside the shared thunks.
	var pool Pool
	warm, err := pool.Run(prog, variants[0])
	if err != nil {
		t.Fatal(err)
	}
	if warm.Machine.SBCompiled != 2 {
		t.Fatalf("warm-up compiled %d blocks, want 2", warm.Machine.SBCompiled)
	}

	const workers, iters = 9, 6
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		cfg := variants[w%len(variants)]
		kind := w % len(variants)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if kind == 2 {
					cfg = faulty()
				}
				res, err := pool.Run(prog, cfg)
				if err != nil {
					errc <- fmt.Errorf("variant %d: %v", kind, err)
					return
				}
				if res.Output != ref.Output {
					errc <- fmt.Errorf("variant %d: output diverged from classic run:\nref: %q\ngot: %q",
						kind, ref.Output, res.Output)
					return
				}
				if res.Instructions != ref.Instructions {
					errc <- fmt.Errorf("variant %d: retired %d instructions, ref %d",
						kind, res.Instructions, ref.Instructions)
					return
				}
				if kind == 2 && (res.Machine.SBCompiled != 0 || res.Machine.SBHits == 0 ||
					res.VM.DegradeByCause[telemetry.DegradeArena] == 0) {
					errc <- fmt.Errorf("faulty run did not degrade inside adopted traces: "+
						"compiled %d, hits %d, arena degradations %d", res.Machine.SBCompiled,
						res.Machine.SBHits, res.VM.DegradeByCause[telemetry.DegradeArena])
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
	if s := cache.Stats(); s.Stores != 2 || len(prog.Traces()) != 2 {
		t.Fatalf("cache accounting off after race: %+v with %d traces on the image", s, len(prog.Traces()))
	}
}

// TestTraceEntryContractAllTargets pins the trace entry contract end to end:
// a trace starts only at an instruction that traps on this visit, so a
// superblock never emulates an entry that native execution would retire
// without a trap. Every fig target, under MPFR-200 and posit32, must print
// exactly what plain trap-and-emulate prints, both on a cold JIT run and on a
// warm run that adopts the cold run's traces from a shared SBCache. This is
// the check behind fpvm.Config.SBCache's promise that warm attachment never
// changes guest-visible output.
func TestTraceEntryContractAllTargets(t *testing.T) {
	targets, progs := buildTargets(t)
	systems := []struct {
		name string
		make func() arith.System
	}{
		{"mpfr200", func() arith.System { return arith.NewMPFR(200) }},
		{"posit32", func() arith.System { return arith.NewPosit(posit.Posit32) }},
	}
	for _, sys := range systems {
		for i, tgt := range targets {
			sys, prog := sys, progs[i]
			t.Run(sys.name+"/"+tgt.Name, func(t *testing.T) {
				t.Parallel()
				plain := Config{Config: fpvm.Config{System: sys.make()}, MemSize: testMemSize}
				jit := plain
				jit.JITThreshold = 8
				jit.SBCache = fpvm.NewSBCache()
				var outs [3]string
				for k, cfg := range []Config{plain, jit, jit} {
					res, err := New().Run(prog, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if res.Fault != "" || res.BudgetExhausted {
						t.Fatalf("run %d did not halt cleanly: fault %q, budget %v", k, res.Fault, res.BudgetExhausted)
					}
					outs[k] = res.Output
				}
				if s := jit.SBCache.Stats(); s.Stores > 0 && s.Adopted == 0 {
					t.Fatalf("warm run adopted nothing from %d published traces", s.Stores)
				}
				for k, name := range []string{"", "cold jit", "warm adopted"} {
					if k > 0 && outs[k] != outs[0] {
						t.Errorf("%s output differs from plain trap-and-emulate:\n%s", name, firstDiff(outs[0], outs[k]))
					}
				}
			})
		}
	}
}

// firstDiff renders the first differing output line of two runs.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d: plain %q, got %q", i+1, wl, gl)
		}
	}
	return "outputs differ"
}
