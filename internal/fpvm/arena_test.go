package fpvm

import (
	"slices"
	"testing"
)

// arenaScript drives a across the first chunk boundary: it fills keys
// 0..arenaChunkSize+3, keeps every third key and both keys straddling the
// boundary alive through one mark-and-sweep, then allocates again so the
// free list is drained and the table grows past the old end. It returns
// every key Alloc handed out, in order.
func arenaScript(t *testing.T, a *Arena) []uint64 {
	t.Helper()
	var keys []uint64
	n := arenaChunkSize + 4
	for i := 0; i < n; i++ {
		keys = append(keys, a.Alloc())
	}
	for _, k := range []uint64{arenaChunkSize - 1, arenaChunkSize} {
		if !a.InUse(k) {
			t.Errorf("InUse(%d) = false, want true", k)
		}
	}
	if a.InUse(uint64(n)) {
		t.Errorf("InUse(%d) found a cell past the end", n)
	}

	keep := func(k uint64) bool { return k%3 == 0 || k == arenaChunkSize-1 || k == arenaChunkSize }
	for k := uint64(0); k < uint64(n); k++ {
		if keep(k) && !a.Mark(k) {
			t.Errorf("Mark(%d) missed a live cell", k)
		}
	}
	if a.Mark(uint64(n)) {
		t.Errorf("Mark(%d) hit a cell past the end", n)
	}
	freed, alive := a.Sweep()
	wantAlive := 0
	for k := uint64(0); k < uint64(n); k++ {
		if keep(k) {
			wantAlive++
		}
	}
	if alive != wantAlive || freed != n-wantAlive || a.Live() != wantAlive {
		t.Errorf("Sweep = (%d freed, %d alive), Live %d; want (%d, %d)", freed, alive, a.Live(), n-wantAlive, wantAlive)
	}
	for k := uint64(0); k < uint64(n); k++ {
		if ok := a.InUse(k); ok != keep(k) {
			t.Errorf("after Sweep, InUse(%d) = %v, want %v", k, ok, keep(k))
		}
	}
	// Sweep cleared the survivors' marks; marking them again and sweeping
	// frees nothing.
	for k := uint64(0); k < uint64(n); k++ {
		if keep(k) {
			a.Mark(k)
		}
	}
	if freed, _ := a.Sweep(); freed != 0 {
		t.Errorf("re-marked sweep freed %d cells, want 0", freed)
	}

	for i := 0; i < n-wantAlive+3; i++ {
		keys = append(keys, a.Alloc())
	}
	return keys
}

// wantArenaKeys is the key sequence arenaScript must see: keys in order,
// then the freed keys reused last-freed first (Sweep frees in key order),
// then fresh keys past the old end.
func wantArenaKeys() []uint64 {
	n := uint64(arenaChunkSize + 4)
	var keys, free []uint64
	for k := uint64(0); k < n; k++ {
		keys = append(keys, k)
		if !(k%3 == 0 || k == arenaChunkSize-1 || k == arenaChunkSize) {
			free = append(free, k)
		}
	}
	for i := len(free) - 1; i >= 0; i-- {
		keys = append(keys, free[i])
	}
	return append(keys, n, n+1, n+2)
}

// TestArenaChunkBoundary pins the chunked slot table to the key, free-list
// and sweep order of a flat table across a chunk boundary, and shows that a
// Reset arena replays a fresh arena's key sequence exactly.
func TestArenaChunkBoundary(t *testing.T) {
	want := wantArenaKeys()
	a := NewArena()
	if got := arenaScript(t, a); !slices.Equal(got, want) {
		t.Fatalf("fresh arena key sequence differs from the flat-table order")
	}
	if a.Reuses() != uint64(len(want)-(arenaChunkSize+4)-3) {
		t.Errorf("Reuses = %d, want %d", a.Reuses(), len(want)-(arenaChunkSize+4)-3)
	}
	a.Reset()
	if a.Live() != 0 || a.Allocs() != 0 || a.HighWater() != 0 || a.Reuses() != 0 {
		t.Errorf("Reset left counters behind: live %d allocs %d high %d reuses %d",
			a.Live(), a.Allocs(), a.HighWater(), a.Reuses())
	}
	if a.InUse(0) {
		t.Error("Reset left key 0 allocated")
	}
	if got := arenaScript(t, a); !slices.Equal(got, want) {
		t.Fatalf("reset arena key sequence differs from a fresh arena's")
	}
}
