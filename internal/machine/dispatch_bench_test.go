package machine

import (
	"strings"
	"testing"

	"fpvm/internal/asm"
	"fpvm/internal/isa"
)

// dispatchProg is a loop over a long straight-line integer body, giving the
// fetch path a code footprint comparable to the real workloads (where the
// seed's per-step map probes miss cache) while keeping the back-end cheap so
// dispatch overhead dominates.
func dispatchProg() string {
	var sb strings.Builder
	sb.WriteString("\tmov r0, $0\nloop:\n")
	for i := 0; i < 1500; i++ {
		sb.WriteString("\tadd r0, $1\n")
	}
	sb.WriteString("\tcmp r0, $1000000000\n\tjl loop\n\thalt\n")
	return sb.String()
}

func newDispatchMachine(b *testing.B) *Machine {
	b.Helper()
	m, err := New(asm.MustAssemble(dispatchProg()), nil)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// stepMap replicates the seed pipeline's per-step front-end: three map
// probes (decoded code, patch sites, correctness sites) at every retirement.
// It reuses the same exec back-end, so the benchmark delta is purely the
// fetch mechanism: dense table walk vs map probes.
func stepMap(m *Machine, decoded map[uint64]isa.Inst,
	patches map[uint64]PatchHandler, sites map[uint64]int64) error {
	if m.halted {
		return nil
	}
	in, ok := decoded[m.RIP]
	if !ok {
		return m.fault("RIP not at an instruction boundary")
	}
	m.curIdx = int(m.addrIdx[m.RIP])
	if ph := patches[m.RIP]; ph != nil {
		m.Cycles += m.Cost.PatchCheck
		m.Stats.PatchInvokes++
		handled, err := ph(&TrapFrame{M: m, Cause: CauseFPException, Inst: in, Idx: m.curIdx})
		if err != nil {
			return err
		}
		if handled {
			m.Stats.Instructions++
			return nil
		}
	}
	slot := instSlot{memOps: memOperands(&in)}
	if s, ok := sites[in.Addr]; ok {
		slot.site, slot.hasSite = s, true
	}
	return m.exec(&in, &slot)
}

// BenchmarkStepDispatch compares the dense predecoded fetch path against the
// seed's map-keyed fetch path on the same machine and back-end.
func BenchmarkStepDispatch(b *testing.B) {
	b.Run("dense", func(b *testing.B) {
		m := newDispatchMachine(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.Step(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("map", func(b *testing.B) {
		m := newDispatchMachine(b)
		decoded := make(map[uint64]isa.Inst, len(m.insts))
		for _, in := range m.insts {
			decoded[in.Addr] = in
		}
		patches := make(map[uint64]PatchHandler)
		sites := make(map[uint64]int64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := stepMap(m, decoded, patches, sites); err != nil {
				b.Fatal(err)
			}
		}
	})
}
