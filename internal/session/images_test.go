package session_test

import (
	"errors"
	"fmt"
	"fpvm/internal/session"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"fpvm/internal/asm"
	"fpvm/internal/isa"
	"fpvm/internal/machine"
	"fpvm/internal/oracle"
	"fpvm/internal/progen"
)

// asmBuilder is an ImageCache builder for an inline assembly body.
func asmBuilder(src string) func() (*isa.Program, error) {
	return func() (*isa.Program, error) { return asm.Assemble(src) }
}

// targetBuilder is an ImageCache builder for a bundled target.
func targetBuilder(t testing.TB, name string) func() (*isa.Program, error) {
	t.Helper()
	tgt, err := oracle.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return tgt.Build
}

// TestImageReuseAlternatingPrograms: one pooled session alternating two
// programs analyzes each exactly once. Once both images exist, every later
// checkout is a cache hit, the build counter — one VSA run per build — stays
// put, and every run repeats the first run of its program bit for bit.
func TestImageReuseAlternatingPrograms(t *testing.T) {
	var cache session.ImageCache
	builds := map[string]func() (*isa.Program, error){
		"FBench": targetBuilder(t, "FBench"),
		"Enzo":   targetBuilder(t, "Enzo/Cosmology Sim."),
	}
	names := []string{"FBench", "Enzo"}
	first := map[string]session.Result{}
	s := session.New()
	for round := 0; round < 6; round++ {
		name := names[round%2]
		img, err := cache.Get(name, builds[name])
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(img, baseConfig())
		if err != nil {
			t.Fatalf("round %d (%s): %v", round, name, err)
		}
		res.VM.GC.LastWall = 0 // host wall clock, nondeterministic
		if ref, ok := first[name]; !ok {
			first[name] = res
		} else if res.Output != ref.Output || res.Cycles != ref.Cycles || res.VM != ref.VM ||
			res.CorrectnessSites != ref.CorrectnessSites {
			t.Errorf("round %d (%s) diverged from its first run", round, name)
		}
	}
	st := cache.Stats()
	if st.Builds != 2 || st.Hits != 4 || st.Entries != 2 || st.Evictions != 0 {
		t.Errorf("image cache after 6 alternating runs = %+v, want 2 builds, 4 hits", st)
	}
	if first["Enzo"].CorrectnessSites == 0 {
		t.Error("premise broken: Enzo has no correctness site to install")
	}
}

// TestImageCacheContentKeys: byte-identical asm bodies share one image, even
// when requested concurrently; different bodies get different images; and a
// body that fails to assemble is reported to every caller and not cached.
func TestImageCacheContentKeys(t *testing.T) {
	var cache session.ImageCache
	rng := rand.New(rand.NewSource(1))
	srcA := progen.FPLoopSource(rng, 12, 4)
	srcB := progen.FPLoopSource(rng, 12, 4)
	if srcA == srcB || session.AsmKey(srcA) == session.AsmKey(srcB) {
		t.Fatal("premise broken: the two bodies are identical")
	}
	if session.AsmKey(srcA) != session.AsmKey(string([]byte(srcA))) {
		t.Fatal("AsmKey depends on more than the source bytes")
	}

	imgs := make([]*machine.Image, 8)
	var wg sync.WaitGroup
	for i := range imgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := string([]byte(srcA)) // a distinct string with the same bytes
			img, err := cache.Get(session.AsmKey(src), asmBuilder(src))
			if err != nil {
				t.Error(err)
			}
			imgs[i] = img
		}(i)
	}
	wg.Wait()
	for i, img := range imgs {
		if img == nil || img != imgs[0] {
			t.Fatalf("request %d for the same body got a different image", i)
		}
	}
	other, err := cache.Get(session.AsmKey(srcB), asmBuilder(srcB))
	if err != nil {
		t.Fatal(err)
	}
	if other == imgs[0] {
		t.Fatal("two different bodies share one image")
	}
	if st := cache.Stats(); st.Builds != 2 || st.Hits != uint64(len(imgs)-1) || st.Entries != 2 {
		t.Errorf("cache = %+v, want 2 builds and %d hits", st, len(imgs)-1)
	}

	bad := "frobnicate f0\n"
	for i := 0; i < 2; i++ {
		if _, err := cache.Get(session.AsmKey(bad), asmBuilder(bad)); err == nil {
			t.Fatal("a body that fails to assemble produced an image")
		}
	}
	if st := cache.Stats(); st.Builds != 4 || st.Entries != 2 {
		t.Errorf("a failed build was cached: %+v", st)
	}

	// A panicking build reaches its caller, and the key is not left
	// half-built for the next one.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("build panic was swallowed")
			}
		}()
		cache.Get("panics", func() (*isa.Program, error) { panic("boom") })
	}()
	if _, err := cache.Get("panics", asmBuilder("halt\n")); err != nil {
		t.Errorf("key stayed poisoned after a panicking build: %v", err)
	}
}

// TestImageCacheEvictsLeastRecentlyUsed: the cache holds at most
// ImageCacheCapacity built images, the one evicted is the least recently
// used, and a build that fails evicts nothing.
func TestImageCacheEvictsLeastRecentlyUsed(t *testing.T) {
	var cache session.ImageCache
	src := func(i int) string { return fmt.Sprintf("mov r0, $%d\nouti r0\nhalt\n", i) }
	get := func(i int) *machine.Image {
		img, err := cache.Get(session.AsmKey(src(i)), asmBuilder(src(i)))
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	first := get(0)
	for i := 1; i < session.ImageCacheCapacity; i++ {
		get(i)
	}
	if get(0) != first { // a hit, which also makes body 0 the most recent
		t.Fatal("full cache rebuilt a cached image")
	}
	bad := "frobnicate f0\n"
	if _, err := cache.Get(session.AsmKey(bad), asmBuilder(bad)); err == nil {
		t.Fatal("a body that fails to assemble produced an image")
	}
	if st := cache.Stats(); st.Entries != session.ImageCacheCapacity || st.Evictions != 0 {
		t.Fatalf("a failed build evicted an image: %+v", st)
	}
	get(session.ImageCacheCapacity) // evicts body 1, the least recently used
	st := cache.Stats()
	if st.Entries != session.ImageCacheCapacity || st.Evictions != 1 {
		t.Fatalf("cache = %+v, want %d entries and 1 eviction", st, session.ImageCacheCapacity)
	}
	if get(0) != first {
		t.Error("the most recently used image was evicted")
	}
	builds := cache.Stats().Builds
	get(1) // rebuilt, evicting body 2
	if cache.Stats().Builds != builds+1 {
		t.Error("the least recently used image was not the one evicted")
	}
}

// TestEvictedImageInUseRunsBitIdentical: evicting an image while a session
// is running it leaves that run bit-identical to a run of a freshly built
// image. Eviction only drops the cache's reference; the running session
// holds its own, so the image cannot be collected under it.
func TestEvictedImageInUseRunsBitIdentical(t *testing.T) {
	build := targetBuilder(t, "Lorenz Attractor")
	prog, err := build()
	if err != nil {
		t.Fatal(err)
	}
	fresh := session.New()
	ref, err := fresh.Run(mustImage(t, prog), baseConfig())
	if err != nil {
		t.Fatal(err)
	}

	var cache session.ImageCache
	img, err := cache.Get("lorenz", build)
	if err != nil {
		t.Fatal(err)
	}
	s := session.New()
	started := make(chan struct{})
	done := make(chan session.Result)
	go func(img *machine.Image) {
		close(started)
		res, err := s.Run(img, baseConfig())
		if err != nil {
			t.Error(err)
		}
		done <- res
	}(img)
	img = nil // the running session holds the only other reference
	<-started
	for i := 0; i < session.ImageCacheCapacity; i++ {
		body := fmt.Sprintf("mov r0, $%d\nouti r0\nhalt\n", i)
		if _, err := cache.Get(session.AsmKey(body), asmBuilder(body)); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
	}
	res := <-done
	if st := cache.Stats(); st.Evictions == 0 {
		t.Fatalf("premise broken: nothing was evicted (%+v)", st)
	}
	if _, err := cache.Get("lorenz", build); err != nil || cache.Stats().Builds != session.ImageCacheCapacity+2 {
		t.Fatalf("evicted image was not rebuilt: %v, %+v", err, cache.Stats())
	}
	requireIdentical(t, "Lorenz Attractor", ref, res, fresh.Machine(), s.Machine())
}

// TestImageCacheFailedBuildWaiters: concurrent requests for a key whose
// build fails all see the error.
func TestImageCacheFailedBuildWaiters(t *testing.T) {
	var cache session.ImageCache
	release := make(chan struct{})
	want := errors.New("no such program")
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = cache.Get("missing", func() (*isa.Program, error) {
				<-release
				return nil, want
			})
		}(i)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, want) {
			t.Errorf("caller %d: err = %v, want %v", i, err, want)
		}
	}
	if cache.Stats().Entries != 0 {
		t.Error("failed build left an entry behind")
	}
}

// BenchmarkSessionAlternate: one pooled session alternating two inline-asm
// programs, each looked up in an ImageCache per run the way fpvm-serve
// resolves a request. With the images built, an op is a cache hit plus a
// reset and a run: no assembly, no analysis, no predecode.
func BenchmarkSessionAlternate(b *testing.B) {
	var cache session.ImageCache
	rng := rand.New(rand.NewSource(1))
	srcs := []string{progen.FPLoopSource(rng, 60, 100), progen.FPLoopSource(rng, 60, 100)}
	var pool session.Pool
	cfg := baseConfig()
	for _, src := range srcs { // build both images before timing
		img, err := cache.Get(session.AsmKey(src), asmBuilder(src))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pool.Run(img, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := srcs[i%2]
		img, err := cache.Get(session.AsmKey(src), asmBuilder(src))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := pool.Run(img, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := cache.Stats(); st.Builds != 2 {
		b.Fatalf("images rebuilt during the benchmark: %+v", st)
	}
}
