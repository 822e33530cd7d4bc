package machine

import (
	"bytes"
	"math"
	"testing"

	"fpvm/internal/asm"
	"fpvm/internal/isa"
)

// TestPatchCorrectnessNaNLoadSameAddress drives all three per-instruction
// mechanisms — a trap-and-patch handler, a static correctness site, and the
// §6.2 trap-on-NaN-load extension — at the *same* integer load, which under
// the dense pipeline share one side-table slot. The expected order per
// execution: patch check first (falls through when unhandled), then the
// static correctness trap, then the hardware NaN-load trap, then native
// execution.
func TestPatchCorrectnessNaNLoadSameAddress(t *testing.T) {
	prog := asm.MustAssemble(`
.data
x: .zero 8
.text
	mov r0, [x]
	outi r0
	halt
`)
	var out bytes.Buffer
	m, err := New(prog, &out)
	if err != nil {
		t.Fatal(err)
	}

	// Locate the integer load.
	var movAddr uint64
	found := false
	for _, in := range m.Insts() {
		if in.Op == isa.OpMov && in.Ops[1].Kind == isa.KindMem {
			movAddr = in.Addr
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no mov r, [mem] in program")
	}
	wantIdx, ok := m.InstIndex(movAddr)
	if !ok {
		t.Fatalf("InstIndex(%#x) not a boundary", movAddr)
	}

	loadSites(t, m, map[uint64]int64{movAddr: 7})

	// Plant a quiet NaN in x so the NaN-load extension fires.
	nan := math.Float64bits(math.NaN())
	if err := m.WriteU64(DefaultDataBase, nan); err != nil {
		t.Fatal(err)
	}

	patchCalls := 0
	if !m.SetPatch(movAddr, func(f *TrapFrame) (bool, error) {
		patchCalls++
		if f.Idx != wantIdx {
			t.Errorf("patch frame Idx = %d, want %d", f.Idx, wantIdx)
		}
		return false, nil // preconditions "fail": execute natively
	}) {
		t.Fatal("SetPatch refused the mov address")
	}
	m.TrapOnNaNLoad = true

	var sites []int64
	m.CorrectnessTrap = func(f *TrapFrame) error {
		sites = append(sites, f.Site)
		if f.Idx != wantIdx {
			t.Errorf("correctness frame Idx = %d, want %d (site %d)", f.Idx, wantIdx, f.Site)
		}
		return nil
	}

	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}

	if patchCalls != 1 {
		t.Errorf("patch handler ran %d times, want 1", patchCalls)
	}
	if m.Stats.PatchInvokes != 1 {
		t.Errorf("Stats.PatchInvokes = %d, want 1", m.Stats.PatchInvokes)
	}
	if len(sites) != 2 || sites[0] != 7 || sites[1] != -2 {
		t.Errorf("correctness site sequence = %v, want [7 -2]", sites)
	}
	if m.Stats.CorrectTraps != 2 {
		t.Errorf("Stats.CorrectTraps = %d, want 2", m.Stats.CorrectTraps)
	}
	// The unhandled load still executed natively and saw the NaN bits.
	if got := uint64(m.R[0]); got != nan {
		t.Errorf("r0 = %#x, want NaN pattern %#x", got, nan)
	}
}
