package fpvm

import "slices"

// Arena is FPVM's shadow-cell allocator: it hands out the keys carried in
// NaN-boxes and keeps their in-use and mark bits. The paper stores raw
// pointers in the boxes; since the usable payload is 51 bits either way, a
// key-indexed table is the variant its footnote 4 describes for platforms
// without pointer-sized payloads, and it gives the garbage collector its
// "simple data structure alongside a marked bit" (§4.1). The values
// themselves live in the arithmetic system's arith.Store, in the cell
// arith.KeyCell(key); the arena holds key bookkeeping only.
type Arena struct {
	// chunks hold the slot table in fixed-size blocks: key k lives in
	// chunks[k>>arenaChunkShift][k&arenaChunkMask], and n keys have been
	// handed out. A growing table adds a chunk instead of copying the whole
	// table, and Reset keeps the chunks for reuse.
	chunks []*arenaChunk
	n      int
	free   []uint64

	allocs    uint64 // lifetime allocations
	reuses    uint64 // allocations served from the free list
	live      int    // currently allocated cells
	highWater int    // peak simultaneously-live cells
}

// arenaChunk is one fixed-size block of the slot table.
type arenaChunk struct {
	inUse  [arenaChunkSize]bool
	marked [arenaChunkSize]bool
}

// Slot-table chunk geometry: 4096 slots (8 KiB) per chunk.
const (
	arenaChunkShift = 12
	arenaChunkSize  = 1 << arenaChunkShift
	arenaChunkMask  = arenaChunkSize - 1
)

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Reset empties the arena while retaining the slot table's chunks: after
// Reset, Live() == 0, every counter is zero, and the next Alloc hands out
// key 0 — the exact key sequence a fresh arena produces, so a pooled
// session's NaN-box patterns are bit-identical to a fresh session's.
func (a *Arena) Reset() {
	for _, c := range a.chunks[:(a.n+arenaChunkMask)>>arenaChunkShift] {
		*c = arenaChunk{}
	}
	a.n = 0
	a.free = a.free[:0]
	a.allocs = 0
	a.reuses = 0
	a.live = 0
	a.highWater = 0
}

// slot returns the chunk and in-chunk index of key; key must be below a.n.
func (a *Arena) slot(key uint64) (*arenaChunk, uint64) {
	return a.chunks[key>>arenaChunkShift], key & arenaChunkMask
}

// liveSlot is slot for a key that names an allocated cell; c is nil
// otherwise.
func (a *Arena) liveSlot(key uint64) (c *arenaChunk, i uint64) {
	if key >= uint64(a.n) {
		return nil, 0
	}
	if c, i = a.slot(key); c.inUse[i] {
		return c, i
	}
	return nil, 0
}

// Alloc marks a key in use and returns it. Freed keys are reused last-freed
// first; otherwise keys are handed out in increasing order.
func (a *Arena) Alloc() uint64 {
	a.allocs++
	a.live++
	if a.live > a.highWater {
		a.highWater = a.live
	}
	var k uint64
	if n := len(a.free); n > 0 {
		a.reuses++
		k = a.free[n-1]
		a.free = a.free[:n-1]
	} else {
		k = uint64(a.n)
		if int(k>>arenaChunkShift) == len(a.chunks) {
			a.chunks = append(a.chunks, new(arenaChunk))
		}
		a.n++
	}
	c, i := a.slot(k)
	c.inUse[i] = true
	return k
}

// InUse reports whether key names an allocated cell.
func (a *Arena) InUse(key uint64) bool {
	c, _ := a.liveSlot(key)
	return c != nil
}

// Live returns the number of currently allocated cells.
func (a *Arena) Live() int { return a.live }

// Allocs returns the lifetime allocation count.
func (a *Arena) Allocs() uint64 { return a.allocs }

// HighWater returns the peak number of simultaneously live cells: the
// table's real memory footprint, since swept slots are recycled through the
// free list rather than returned to the Go heap.
func (a *Arena) HighWater() int { return a.highWater }

// Reuses returns how many allocations were served from the free list
// instead of growing the slot table.
func (a *Arena) Reuses() uint64 { return a.reuses }

// Mark flags key as reachable during a GC pass; it reports whether the key
// named a live cell (the conservative scanner probes arbitrary bit
// patterns, so misses are expected and harmless).
func (a *Arena) Mark(key uint64) bool {
	c, i := a.liveSlot(key)
	if c == nil {
		return false
	}
	c.marked[i] = true
	return true
}

// Sweep frees every unmarked cell and clears all marks, returning the number
// of cells freed and the number still alive. Cells are visited in key order,
// so freed keys join the free list in increasing order.
func (a *Arena) Sweep() (freed, alive int) {
	// At most every live cell is freed: size the free list once rather than
	// regrowing it by append.
	a.free = slices.Grow(a.free, a.live)
	for k := 0; k < a.n; k++ {
		c, i := a.slot(uint64(k))
		if !c.inUse[i] {
			continue
		}
		if c.marked[i] {
			c.marked[i] = false
			alive++
			continue
		}
		c.inUse[i] = false
		a.free = append(a.free, uint64(k))
		freed++
	}
	a.live = alive
	return freed, alive
}
