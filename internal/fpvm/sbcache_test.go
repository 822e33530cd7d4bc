package fpvm

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"fpvm/internal/arith"
	"fpvm/internal/asm"
	"fpvm/internal/isa"
	"fpvm/internal/machine"
)

// sbImage assembles src into the program image every tenant of a test shares:
// published traces live on the image.
func sbImage(t *testing.T, src string) *machine.Image {
	t.Helper()
	img, err := machine.NewImage(asm.MustAssemble(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// bodySiteImage returns jitHotSrc's image carrying one correctness site, on
// the first body instruction of its cached trace. A machine loaded over it
// without InstallSites is a NoPatch run, free to compile and publish a trace
// across the site; one that installs it must not adopt that trace.
func bodySiteImage(t *testing.T) *machine.Image {
	t.Helper()
	plain := sbImage(t, jitHotSrc)
	m, _ := newSBMachine(t, plain)
	img, err := plain.WithSites(map[uint64]int64{traceBodyAddr(m): 1})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// newSBMachine builds a fresh machine over img with its own output buffer.
func newSBMachine(t *testing.T, img *machine.Image) (*machine.Machine, *bytes.Buffer) {
	t.Helper()
	var out bytes.Buffer
	m, err := machine.NewFromImage(img, &out, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m, &out
}

// TestSBCacheWarmAttach is the tentpole shared-cache contract: the first
// session over a program compiles and publishes; a second session over the
// same image adopts at attach time, compiles nothing, serves
// every entry from the shared trace, and produces bit-identical output at
// strictly lower modeled cost.
func TestSBCacheWarmAttach(t *testing.T) {
	native, _ := runNative(t, jitHotSrc)
	img := sbImage(t, jitHotSrc)
	cache := NewSBCache()
	cfg := Config{System: arith.Vanilla{}, JITThreshold: 3, SBCache: cache}

	mA, outA := newSBMachine(t, img)
	Attach(mA, cfg)
	if err := mA.Run(0); err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if outA.String() != native {
		t.Fatalf("cold output diverged:\nnative: %sfpvm:  %s", native, outA.String())
	}
	if mA.Stats.SBCompiled != 1 {
		t.Fatalf("cold session compiled %d blocks, want 1", mA.Stats.SBCompiled)
	}
	if s := cache.Stats(); s.Stores != 1 || len(img.Traces()) != 1 {
		t.Fatalf("after cold run cache = %+v with %d traces on the image, want 1 store/trace", s, len(img.Traces()))
	}

	mB, outB := newSBMachine(t, img)
	Attach(mB, cfg)
	if err := mB.Run(0); err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if outB.String() != native {
		t.Fatalf("warm output diverged:\nnative: %sfpvm:  %s", native, outB.String())
	}
	if mB.Stats.SBCompiled != 0 {
		t.Fatalf("warm session compiled %d blocks, want 0 (adopted)", mB.Stats.SBCompiled)
	}
	// With the trace installed from instruction zero, all 50 iterations are
	// superblock entries — no warm-up deliveries at all.
	if mB.Stats.SBHits != 50 {
		t.Fatalf("warm SBHits = %d, want 50", mB.Stats.SBHits)
	}
	if mB.Cycles >= mA.Cycles {
		t.Fatalf("warm attach not cheaper: %d vs %d cycles", mB.Cycles, mA.Cycles)
	}
	if s := cache.Stats(); s.Adopted == 0 || s.Hits == 0 {
		t.Fatalf("adoption not accounted: %+v", s)
	}
}

// TestSBCacheBarrierRefusal: a session whose side table shadows the published
// trace (a correctness site inside the body, installed from the image that a
// NoPatch session published the trace on) must decline adoption and take
// the classic compile path against its own barriers — never execute a shared
// trace its semantics forbid.
func TestSBCacheBarrierRefusal(t *testing.T) {
	native, _ := runNative(t, jitHotSrc)
	img := bodySiteImage(t)
	cache := NewSBCache()
	cfg := Config{System: arith.Vanilla{}, JITThreshold: 3, SBCache: cache}

	mA, _ := newSBMachine(t, img)
	Attach(mA, cfg)
	if err := mA.Run(0); err != nil {
		t.Fatal(err)
	}

	mB, outB := newSBMachine(t, img)
	if mB.InstallSites() != 1 {
		t.Fatal("the image carries no body site")
	}
	vmB := Attach(mB, cfg)
	entry, _ := mB.InstIndex(findOpAddr(mB, isa.OpDivsd))
	if vmB.sblocks[entry] != nil {
		t.Fatal("adoption installed a trace the session's side table forbids")
	}
	if err := mB.Run(0); err != nil {
		t.Fatal(err)
	}
	if outB.String() != native {
		t.Fatalf("refusing session output diverged:\nnative: %sfpvm:  %s",
			native, outB.String())
	}
	// It still compiles its own (shorter, barrier-respecting) trace.
	if mB.Stats.SBCompiled != 1 {
		t.Fatalf("refusing session compiled %d blocks, want its own 1", mB.Stats.SBCompiled)
	}
}

// TestSBCacheConcurrentTenants races many sessions over one shared cache and
// one image — some installing the image's correctness site inside the
// published trace, the rest running without it — and requires every tenant
// to produce the native output. Run under -race (make race) this is the
// cross-tenant check at the fpvm layer.
func TestSBCacheConcurrentTenants(t *testing.T) {
	native, _ := runNative(t, jitHotSrc)
	img := bodySiteImage(t)
	cache := NewSBCache()

	const tenants = 12
	outs := make([]string, tenants)
	errs := make([]error, tenants)
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var out bytes.Buffer
			m, err := machine.NewFromImage(img, &out, 0)
			if err != nil {
				errs[i] = err
				return
			}
			if i%4 == 1 {
				// Mutating tenant: a correctness site shadows the trace body,
				// so this tenant declines the shared trace and compiles its
				// own.
				m.InstallSites()
			}
			Attach(m, Config{System: arith.Vanilla{}, JITThreshold: 3, SBCache: cache})
			if err := m.Run(0); err != nil {
				errs[i] = fmt.Errorf("tenant %d: %w", i, err)
				return
			}
			outs[i] = out.String()
		}(i)
	}
	wg.Wait()
	for i := 0; i < tenants; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if outs[i] != native {
			t.Fatalf("tenant %d output diverged:\nnative: %sfpvm:  %s", i, native, outs[i])
		}
	}
	if s := cache.Stats(); len(img.Traces()) != 1 || s.Lookups != tenants {
		t.Fatalf("cache accounting off after race: %+v with %d traces on the image", s, len(img.Traces()))
	}
}
