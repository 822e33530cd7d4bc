// The shared warm superblock cache: the pooled-session counterpart of the
// trace-JIT tier. A superblock is compiled from the machine's immutable
// predecoded instruction stream, so for a given *isa.Program the thunks are a
// pure function of (entry index, stop-condition barriers at compile time) —
// they carry no machine state, no side-table state, and no arithmetic-system
// state. That makes a compiled trace safe to share across sessions running
// the pointer-identical program: each session wraps the shared thunk slice in
// its own superblock struct with private version stamps, and all per-session
// mutation (revalidation restamps, invalidation, hit counts) happens on the
// wrapper. The published thunks themselves are read-only after publication —
// runners never write through *decodedInst — so concurrent tenants can
// execute the same slice without synchronization.
//
// Staleness cannot cross sessions by construction: a tenant's code writes,
// SetPatch calls, and storm patches advance only its own machine's version
// counters, which invalidate only its own wrappers. The shared entry stays
// exactly what the compiler produced from the immutable program text, which
// is always a faithful trace for a freshly Reset machine; a session whose
// side table forbids an entry (a correctness site or foreign patch inside
// the trace) simply declines to adopt it at attach time.
package fpvm

import (
	"sync"
	"sync/atomic"

	"fpvm/internal/isa"
	"fpvm/internal/machine"
)

// SBCacheStats is a point-in-time snapshot of shared-cache traffic.
type SBCacheStats struct {
	// Lookups counts attach-time program lookups; Hits the subset that found
	// at least one published trace to adopt (Hits/Lookups is the warm-attach
	// rate a serving deployment watches).
	Lookups uint64
	Hits    uint64
	// Stores counts published traces; Adopted counts wrapper installs handed
	// to attaching sessions.
	Stores  uint64
	Adopted uint64
	// Programs and Entries size the cache.
	Programs int
	Entries  int
}

// SBCache is a concurrency-safe, read-mostly superblock cache shared by every
// session whose Config points at it. Keying is by pointer identity of the
// immutable *isa.Program (the contract machine.Reset already imposes on
// pooled programs) plus the dense entry index.
type SBCache struct {
	mu    sync.RWMutex
	progs map[*isa.Program]map[int][]sbThunk

	lookups atomic.Uint64
	hits    atomic.Uint64
	stores  atomic.Uint64
	adopted atomic.Uint64
}

// NewSBCache returns an empty shared superblock cache.
func NewSBCache() *SBCache {
	return &SBCache{progs: make(map[*isa.Program]map[int][]sbThunk)}
}

// publish stores a freshly compiled trace for prog at entry. First writer
// wins: a concurrent tenant compiling the same entry produced identical
// thunks (both translated the same immutable instruction run), so replacing
// would only churn memory under readers.
func (c *SBCache) publish(prog *isa.Program, entry int, thunks []sbThunk) {
	if c == nil || prog == nil || len(thunks) == 0 {
		return
	}
	c.mu.Lock()
	entries := c.progs[prog]
	if entries == nil {
		entries = make(map[int][]sbThunk)
		c.progs[prog] = entries
	}
	if _, ok := entries[entry]; !ok {
		entries[entry] = thunks
		c.stores.Add(1)
	}
	c.mu.Unlock()
}

// snapshot returns the published entry set for prog (nil when the program has
// never been compiled against). The returned map is freshly allocated; the
// thunk slices are the shared read-only traces.
func (c *SBCache) snapshot(prog *isa.Program) map[int][]sbThunk {
	c.lookups.Add(1)
	c.mu.RLock()
	entries := c.progs[prog]
	var out map[int][]sbThunk
	if len(entries) > 0 {
		out = make(map[int][]sbThunk, len(entries))
		for e, t := range entries {
			out[e] = t
		}
	}
	c.mu.RUnlock()
	if out != nil {
		c.hits.Add(1)
	}
	return out
}

// Stats snapshots the cache counters and sizes.
func (c *SBCache) Stats() SBCacheStats {
	if c == nil {
		return SBCacheStats{}
	}
	s := SBCacheStats{
		Lookups: c.lookups.Load(),
		Hits:    c.hits.Load(),
		Stores:  c.stores.Load(),
		Adopted: c.adopted.Load(),
	}
	c.mu.RLock()
	s.Programs = len(c.progs)
	for _, entries := range c.progs {
		s.Entries += len(entries)
	}
	c.mu.RUnlock()
	return s
}

// adoptShared installs every published trace for m's program that this
// session's side table permits, wrapping each shared thunk slice in a private
// superblock. Adoption charges no modeled cycles — skipping the warm-up
// deliveries and the compile is exactly the optimization — and increments no
// SBCompiled counter, which is how the load harness proves warm checkouts
// compile nothing. Version stamps are taken after every install so the
// block's own SetPatch calls do not read as foreign side-table writes.
func (vm *VM) adoptShared(m *machine.Machine) {
	entries := vm.cfg.SBCache.snapshot(m.Prog)
	if entries == nil {
		return
	}
	insts := m.Insts()
	// Admission runs against the PRE-adoption side table for every candidate
	// before any install: published traces legitimately overlap (an early
	// long trace may cross a site that later became its own entry), so our
	// own entry patches must not count as body barriers for each other —
	// map iteration order would otherwise make the adopted set, and with it
	// the warm run's modeled cycles, nondeterministic. A thunk crossing a
	// sibling entry executes that instruction identically, it just skips the
	// sibling's dispatch.
	type candidate struct {
		entry  int
		thunks []sbThunk
	}
	var admit []candidate
	for entry, thunks := range entries {
		if entry < 0 || entry >= len(vm.sblocks) || entry+len(thunks) > len(insts) {
			continue // published against a different (stale) program layout
		}
		if thunks[0].d.inst.Addr != insts[entry].Addr {
			continue
		}
		// The same admission contract compileSB enforces, re-checked against
		// THIS session's side table: no dispatch semantics may be shadowed.
		if m.SeqBarrier(entry) || traceExtent(m, entry, len(thunks)) != len(thunks) {
			continue
		}
		admit = append(admit, candidate{entry, thunks})
	}
	var installed []*superblock
	for _, c := range admit {
		sb := &superblock{trace: trace{entry: c.entry, n: len(c.thunks), thunks: c.thunks}}
		if !m.SetPatch(insts[c.entry].Addr, vm.sbFn) {
			continue
		}
		vm.sblocks[c.entry] = sb
		installed = append(installed, sb)
	}
	side, code := m.SideTableVersion(), m.CodeVersion()
	for _, sb := range installed {
		sb.sideVer, sb.codeVer = side, code
	}
	vm.cfg.SBCache.adopted.Add(uint64(len(installed)))
}
