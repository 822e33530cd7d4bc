package fpvm

import (
	"encoding/binary"
	"time"

	"fpvm/internal/faultinject"
	"fpvm/internal/nanbox"
	"fpvm/internal/telemetry"
)

// GCStats records garbage collector behavior, the data behind Figure 10.
type GCStats struct {
	Passes         uint64
	TotalFreed     uint64
	TotalMarked    uint64
	LastAlive      int
	LastFreed      int
	LastCycles     uint64        // modeled cost of the last pass
	LastWall       time.Duration // measured wall time of the last pass
	ArenaHighWater int           // peak simultaneously-live shadow cells
	ArenaReuses    uint64        // allocations served from the free list
	AbortedPasses  uint64        // passes abandoned before sweeping (injected scan faults)
}

// RunGC performs one conservative mark-and-sweep pass over all writable
// program state (§4.1): every FP register lane, every integer register, and
// every aligned 8-byte word of *writable* memory — the data segment and the
// heap/stack above it — is tested for the NaN-box pattern; hits mark their
// arena cell, and unmarked cells are swept. The code segment's address range
// is read-only program text (the paper scans "writable program memory"), so
// skipping it both avoids false-positive marks from code bytes that happen
// to look like NaN-boxes and shrinks the modeled scan cost.
//
// The pointer graph is bipartite — program locations point at shadow cells,
// never the reverse — so a single scan pass suffices; there is no
// transitive marking.
func (vm *VM) RunGC() {
	start := time.Now()
	m := vm.M

	// A scan fault abandons the whole pass before any sweep: retaining
	// garbage for another epoch is always safe, freeing a live cell never
	// is. The epoch clock still advances so a persistent fault cannot pin
	// the runtime in a retry loop.
	if j := vm.inject; j != nil && j.Fire(faultinject.SeamGCScan, vm.injectPC) {
		vm.Stats.GC.AbortedPasses++
		vm.Stats.Degradations++
		vm.Stats.DegradeByCause[telemetry.DegradeGCScan]++
		if t := m.Telem; t != nil {
			t.Degradation(-1, vm.injectPC, 0, telemetry.DegradeGCScan, m.Cycles)
		}
		vm.lastGC = vm.Arena.Allocs()
		return
	}

	var scanned uint64

	probe := func(bits uint64) {
		if key, ok := nanbox.Unbox(bits); ok {
			if vm.Arena.Mark(key) {
				vm.Stats.GC.TotalMarked++
			}
		}
	}

	for r := range m.F {
		probe(m.F[r][0])
		probe(m.F[r][1])
	}
	for r := range m.R {
		probe(uint64(m.R[r]))
	}
	// Lane results of the instruction being emulated, boxed but not yet
	// written back: a soft-cap pass runs inside an allocation.
	probe(vm.pending[0])
	probe(vm.pending[1])
	mem := m.Mem
	lo := int(m.WritableBase()) &^ 7
	if lo > len(mem) {
		lo = len(mem)
	}
	for off := lo; off+8 <= len(mem); off += 8 {
		probe(binary.LittleEndian.Uint64(mem[off:]))
		scanned++
	}

	freed, alive := vm.Arena.Sweep()

	cost := scanned/16*vm.costs.GCPerWord + uint64(freed+alive)*vm.costs.GCPerCell
	m.Cycles += cost
	vm.Stats.Cycles.GC += cost

	vm.Stats.GC.Passes++
	vm.Stats.GC.TotalFreed += uint64(freed)
	vm.Stats.GC.LastAlive = alive
	vm.Stats.GC.LastFreed = freed
	vm.Stats.GC.LastCycles = cost
	vm.Stats.GC.LastWall = time.Since(start)
	vm.Stats.GC.ArenaHighWater = vm.Arena.HighWater()
	vm.Stats.GC.ArenaReuses = vm.Arena.Reuses()
	vm.lastGC = vm.Arena.Allocs()
	if t := m.Telem; t != nil {
		t.GCEpoch(freed, alive, m.Cycles)
	}
}
