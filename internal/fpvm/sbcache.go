// The shared warm superblock cache: the pooled-session counterpart of the
// trace-JIT tier. A superblock is compiled from the machine's immutable
// predecoded instruction stream, so for a given program image the thunks are
// a pure function of (entry index, stop-condition barriers at compile time) —
// they carry no machine state, no side-table state, and no arithmetic-system
// state. That makes a compiled trace safe to share across sessions running
// the same image: it is published on the machine.Image itself, each session
// wraps the shared thunk slice in its own superblock struct with private
// version stamps, and all per-session mutation (revalidation restamps,
// invalidation, hit counts) happens on the wrapper. The published thunks
// themselves are read-only after publication — runners never write through
// *decodedInst — so concurrent tenants can execute the same slice without
// synchronization, and the traces live exactly as long as their image.
//
// Staleness cannot cross sessions by construction: a tenant's code writes
// and SetPatch calls advance only its own machine's version counters, which
// invalidate only its own wrappers. The published entry stays exactly what
// the compiler produced from the immutable program text, which is always a
// faithful trace for a freshly Reset machine; a session whose side table
// forbids an entry (a correctness site or foreign patch inside the trace)
// simply declines to adopt it at attach time.
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
	// Stores counts published traces; Adopted counts wrapper installs handed
	// to attaching sessions.
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
// thunks (both translated the same immutable instruction run).
func (c *SBCache) publish(img *machine.Image, entry int, thunks []sbThunk) {
	if c == nil || len(thunks) == 0 {
		return
	}
	if img.PublishTrace(entry, thunks) {
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

// adoptShared installs every trace published on m's image that this
// session's side table permits, wrapping each shared thunk slice in a private
// superblock. Adoption charges no modeled cycles — skipping the warm-up
// deliveries and the compile is exactly the optimization — and increments no
// SBCompiled counter, which is how the load harness proves warm checkouts
// compile nothing. Version stamps are taken after every install so the
// block's own SetPatch calls do not read as foreign side-table writes.
func (vm *VM) adoptShared(m *machine.Machine) {
	c := vm.cfg.SBCache
	c.lookups.Add(1)
	published := m.Image().Traces()
	if len(published) == 0 {
		return
	}
	c.hits.Add(1)
	insts := m.Insts()
	// Admission runs against the PRE-adoption side table for every candidate
	// before any install: published traces legitimately overlap (an early
	// long trace may cross a site that later became its own entry), so our
	// own entry patches must not count as body barriers for each other —
	// publication order would otherwise make the adopted set, and with it
	// the warm run's modeled cycles, depend on which tenant compiled first.
	// A thunk crossing a sibling entry executes that instruction
	// identically, it just skips the sibling's dispatch.
	var admit []*superblock
	for _, p := range published {
		thunks := p.Trace.([]sbThunk)
		// The same admission contract compileSB enforces, re-checked against
		// THIS session's side table: no dispatch semantics may be shadowed.
		if m.SeqBarrier(p.Entry) || traceExtent(m, p.Entry, len(thunks)) != len(thunks) {
			continue
		}
		admit = append(admit, &superblock{trace: trace{entry: p.Entry, n: len(thunks), thunks: thunks}})
	}
	for _, sb := range admit {
		m.SetPatch(insts[sb.entry].Addr, vm.sbFn)
		vm.sblocks[sb.entry] = sb
	}
	side, code := m.SideTableVersion(), m.CodeVersion()
	for _, sb := range admit {
		sb.sideVer, sb.codeVer = side, code
	}
	c.adopted.Add(uint64(len(admit)))
}
