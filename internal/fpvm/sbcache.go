// The shared warm superblock cache: the pooled-session counterpart of the
// trace-JIT tier. A superblock is compiled from the machine's immutable
// predecoded instruction stream, so for a given program image the thunks are
// a pure function of the entry index and the compiling session's stop
// conditions — they carry no machine state, no side-table state, and no
// arithmetic-system state. That makes a compiled trace safe to share across
// sessions running the same image: it is published on the machine.Image
// itself and each session installs the shared trace at its entry in its own
// cache. The published thunks are read-only after publication — runners never
// write through *decodedInst — so concurrent tenants can execute the same
// slice without synchronization, and the traces live exactly as long as
// their image.
//
// Nothing a tenant does can make a shared trace stale: the image is
// immutable, a tenant's correctness sites are fixed before its run starts,
// and its patch slots belong to its own VM. A session whose correctness
// sites fall inside a published trace simply declines to adopt it at attach
// time.
package fpvm

import (
	"sync/atomic"

	"fpvm/internal/machine"
)

// SBCacheStats is a point-in-time snapshot of shared-cache traffic.
type SBCacheStats struct {
	// Lookups counts attach-time image lookups; Hits the subset that found
	// at least one published trace to adopt (Hits/Lookups is the warm-attach
	// rate a serving deployment watches).
	Lookups uint64
	Hits    uint64
	// Stores counts published traces; Adopted counts traces installed in
	// attaching sessions.
	Stores  uint64
	Adopted uint64
}

// SBCache opts sessions into sharing compiled superblocks through their
// program images and counts the traffic. Every session whose Config points
// at a cache publishes the traces it compiles on its image and adopts the
// ones already there; the traces themselves are stored on the images, so the
// cache holds no per-program state. It is safe for concurrent use.
type SBCache struct {
	lookups atomic.Uint64
	hits    atomic.Uint64
	stores  atomic.Uint64
	adopted atomic.Uint64
}

// NewSBCache returns a shared superblock cache with zeroed counters.
func NewSBCache() *SBCache { return &SBCache{} }

// publish stores a freshly compiled trace on img at entry. First writer
// wins: a concurrent tenant compiling the same entry produced identical
// steps (both translated the same immutable instruction run).
func (c *SBCache) publish(img *machine.Image, entry int, steps []step) {
	if c == nil || len(steps) == 0 {
		return
	}
	if img.PublishTrace(entry, steps) {
		c.stores.Add(1)
	}
}

// Stats snapshots the cache counters.
func (c *SBCache) Stats() SBCacheStats {
	if c == nil {
		return SBCacheStats{}
	}
	return SBCacheStats{
		Lookups: c.lookups.Load(),
		Hits:    c.hits.Load(),
		Stores:  c.stores.Load(),
		Adopted: c.adopted.Load(),
	}
}

// adoptShared installs every trace published on m's image that has no
// correctness site inside it: such a site needs its own delivery, which a
// trace running past it would skip. Published traces may overlap (an early
// long trace may cross a site that later became its own entry); a trace
// crossing another's entry executes that instruction identically, it just
// skips the other's dispatch. Adoption charges no modeled cycles — skipping
// the warm-up traces and the compile is exactly the optimization — and
// increments no SBCompiled counter, which is how the load harness proves
// warm checkouts compile nothing.
func (vm *VM) adoptShared(m *machine.Machine) {
	c := vm.cfg.SBCache
	c.lookups.Add(1)
	published := m.Image().Traces()
	if len(published) == 0 {
		return
	}
	c.hits.Add(1)
	insts := m.Insts()
	adopted := 0
next:
	for _, p := range published {
		steps := p.Trace.([]step)
		for _, in := range insts[p.Entry : p.Entry+len(steps)] {
			if _, site := m.CorrectnessSite(in.Addr); site {
				continue next
			}
		}
		m.SetPatch(insts[p.Entry].Addr, vm.patchFn)
		vm.sblocks[p.Entry] = &trace{entry: p.Entry, n: len(steps), steps: steps}
		adopted++
	}
	c.adopted.Add(uint64(adopted))
}
