package fpvm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"fpvm/internal/arith"
	"fpvm/internal/asm"
	"fpvm/internal/isa"
	"fpvm/internal/machine"
	"fpvm/internal/nanbox"
)

// seqProg builds a program whose third instruction (divsd 1/3, inexact)
// traps, followed by the given instruction lines, then a halt.
func seqProg(next ...string) string {
	return `
.text
	movsd f0, =1.0
	movsd f1, =1.0
	divsd f0, =3.0
	` + strings.Join(next, "\n\t") + `
	halt
`
}

// runSeq assembles src, optionally customizes the machine before the run,
// and executes under FPVM+Vanilla with the given sequence cap.
func runSeq(t *testing.T, src string, maxSeq int, prep func(*machine.Machine)) *VM {
	t.Helper()
	prog := asm.MustAssemble(src)
	var out bytes.Buffer
	m, err := machine.New(prog, &out)
	if err != nil {
		t.Fatal(err)
	}
	if prep != nil {
		prep(m)
	}
	vm := Attach(m, Config{System: arith.Vanilla{}, MaxSequenceLen: maxSeq})
	if err := m.Run(0); err != nil {
		t.Fatalf("run: %v", err)
	}
	return vm
}

// TestSeqStopConditions drives every stop-condition branch of coalescable:
// the forward walk must cross plain FP arithmetic and moves, and must stop
// at patch sites, correctness sites, external calls, branches, integer
// instructions, and scalar/packed mode changes.
func TestSeqStopConditions(t *testing.T) {
	cases := []struct {
		name string
		next []string               // instructions after the faulting divsd
		prep func(*machine.Machine) // optional site installation
		want uint64                 // expected Stats.Coalesced
	}{
		{
			name: "fp arith coalesces",
			next: []string{"addsd f1, =1.5", "mulsd f1, =1.25"},
			want: 2,
		},
		{
			name: "fp move coalesces",
			next: []string{"movsd f2, f1", "addsd f2, =1.5"},
			want: 2,
		},
		{
			name: "integer op stops",
			next: []string{"inc r0", "addsd f1, =1.5"},
			want: 0,
		},
		{
			name: "branch stops",
			next: []string{"jmp done", "done:", "addsd f1, =1.5"},
			want: 0,
		},
		{
			name: "external call stops",
			next: []string{"callext $1", "addsd f1, =1.5"},
			want: 0,
		},
		{
			name: "packed after scalar stops",
			next: []string{"addpd f2, f3", "addsd f1, =1.5"},
			want: 0,
		},
		{
			name: "correctness site stops",
			next: []string{"addsd f1, =1.5"},
			prep: func(m *machine.Machine) {
				loadSites(m, map[uint64]int64{findOpAddr(m, isa.OpAddsd): 1})
			},
			want: 0,
		},
		// JIT-boundary rows: conditions that must cut a run short mid-trace,
		// not just refuse it at the first step.
		{
			name: "barrier mid-trace cuts run",
			next: []string{"addsd f1, =1.5", "mulsd f1, =1.25"},
			prep: func(m *machine.Machine) {
				loadSites(m, map[uint64]int64{findOpAddr(m, isa.OpMulsd): 1})
			},
			want: 1,
		},
		{
			name: "mode flip mid-trace cuts run",
			next: []string{"addsd f1, =1.5", "addpd f2, f3", "subsd f1, =0.25"},
			want: 1,
		},
		{
			name: "callext mid-trace cuts run",
			next: []string{"addsd f1, =1.5", "callext $1", "subsd f1, =0.25"},
			want: 1,
		},
		{
			name: "halt stops",
			next: nil,
			want: 0,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := seqProg(c.next...)
			vm := runSeq(t, src, 16, c.prep)
			if vm.Stats.Traps == 0 {
				t.Fatal("program never trapped; test premise broken")
			}
			if vm.Stats.Coalesced != c.want {
				t.Fatalf("Coalesced = %d, want %d", vm.Stats.Coalesced, c.want)
			}

			// Both tiers share one stop-condition contract: the superblock the
			// trace-JIT compiles at the same entry must span exactly the
			// instructions the first coalesced delivery retired.
			_, mj, vmj := runSB(t, src, Config{MaxSequenceLen: 16, JITThreshold: 1}, c.prep)
			sb := sbAt(t, mj, vmj, isa.OpDivsd)
			if sb == nil {
				t.Fatal("threshold 1 never compiled a superblock at the divsd entry")
			}
			if got, want := len(sb.steps), 1+int(c.want); got != want {
				t.Fatalf("superblock trace length %d, want %d (1 + coalesced run)", got, want)
			}
		})
	}
}

// findOpAddr is findOp without the testing.T plumbing, for prep closures.
func findOpAddr(m *machine.Machine, op isa.Op) uint64 {
	for _, in := range m.Insts() {
		if in.Op == op {
			return in.Addr
		}
	}
	panic("op not found")
}

// TestSeqMaxLenCap proves the cap is honored: a straight run of eight FP
// adds coalesces fully at a large cap and is cut at a small one.
func TestSeqMaxLenCap(t *testing.T) {
	adds := make([]string, 8)
	for i := range adds {
		adds[i] = fmt.Sprintf("addsd f1, =%d.5", i+1)
	}
	src := seqProg(adds...)

	vm := runSeq(t, src, 16, nil)
	if vm.Stats.Coalesced != 8 {
		t.Fatalf("uncapped: Coalesced = %d, want 8", vm.Stats.Coalesced)
	}
	if vm.Stats.Sequences == 0 {
		t.Fatal("uncapped: no sequence recorded")
	}

	vm = runSeq(t, src, 2, nil)
	// Cap of 2 extra instructions per delivery: the first delivery retires
	// divsd + 2 adds; the remaining adds trap (inexact results) and coalesce
	// in further capped sequences.
	for _, h := range vm.Stats.SeqLenHist[3:] {
		if h != 0 {
			t.Fatalf("capped at 2 but histogram shows runs > 4: %v", vm.Stats.SeqLenHist)
		}
	}
	if vm.Stats.Coalesced == 0 {
		t.Fatal("capped: expected some coalescing")
	}
}

// TestSeqVanillaOutputIdentical is the correctness half of the tentpole:
// with coalescing on, a Vanilla run must still print exactly what native
// execution prints.
func TestSeqVanillaOutputIdentical(t *testing.T) {
	native, _ := runNative(t, lorenzSrc)
	virt, _, vm := runFPVM(t, lorenzSrc, arith.Vanilla{}, Config{MaxSequenceLen: 16})
	if native != virt {
		t.Fatalf("vanilla+seqemu output differs:\nnative: %sfpvm:  %s", native, virt)
	}
	if vm.Stats.Sequences == 0 || vm.Stats.Coalesced == 0 {
		t.Fatalf("no coalescing happened: %+v", vm.Stats)
	}
}

// TestSeqCycleAccounting checks the perf claim at the unit level: with
// delivery amortized, the same program must retire the same instructions in
// strictly fewer modeled cycles and strictly fewer traps.
func TestSeqCycleAccounting(t *testing.T) {
	run := func(maxSeq int) (*machine.Machine, *VM) {
		prog := asm.MustAssemble(lorenzSrc)
		var out bytes.Buffer
		m, err := machine.New(prog, &out)
		if err != nil {
			t.Fatal(err)
		}
		vm := Attach(m, Config{System: arith.Vanilla{}, MaxSequenceLen: maxSeq})
		if err := m.Run(0); err != nil {
			t.Fatal(err)
		}
		return m, vm
	}
	moff, voff := run(0)
	mon, von := run(16)
	if mon.Stats.Instructions != moff.Stats.Instructions {
		t.Fatalf("retired instructions differ: %d vs %d",
			mon.Stats.Instructions, moff.Stats.Instructions)
	}
	if von.Stats.Traps >= voff.Stats.Traps {
		t.Fatalf("traps did not drop: %d (on) vs %d (off)", von.Stats.Traps, voff.Stats.Traps)
	}
	if mon.Cycles >= moff.Cycles {
		t.Fatalf("cycles did not drop: %d (on) vs %d (off)", mon.Cycles, moff.Cycles)
	}
	if got := mon.Stats.CoalescedFP; got != von.Stats.Coalesced {
		t.Fatalf("machine credited %d coalesced retirements, VM recorded %d",
			got, von.Stats.Coalesced)
	}
	var hist uint64
	for i, h := range von.Stats.SeqLenHist {
		_ = SeqLenBucketLabel(i) // labels must exist for every bucket
		hist += h
	}
	if hist != von.Stats.Traps {
		t.Fatalf("histogram covers %d deliveries, want %d", hist, von.Stats.Traps)
	}
}

// TestArenaReuseAndHighWater asserts the free list actually recycles slots
// across GC epochs and that the high-water mark is reported.
func TestArenaReuseAndHighWater(t *testing.T) {
	// A tiny GC epoch forces several passes over the Lorenz run.
	_, _, vm := runFPVM(t, lorenzSrc, arith.Vanilla{}, Config{GCEveryNAllocs: 64})
	if vm.Stats.GC.Passes == 0 {
		t.Fatal("no GC passes with a 64-alloc epoch")
	}
	if vm.Arena.Reuses() == 0 {
		t.Fatal("free list never reused a slot across GC epochs")
	}
	hw := vm.Arena.HighWater()
	if hw == 0 {
		t.Fatal("high-water mark not tracked")
	}
	if uint64(hw) > vm.Arena.Allocs() {
		t.Fatalf("high water %d exceeds lifetime allocs %d", hw, vm.Arena.Allocs())
	}
	// With recycling, the table's footprint must stay far below the
	// lifetime allocation count (that is the point of the free list).
	if uint64(hw)*2 > vm.Arena.Allocs() {
		t.Fatalf("high water %d too close to lifetime allocs %d — reuse broken",
			hw, vm.Arena.Allocs())
	}
	// GCStats snapshots the counters at the last pass; allocation continues
	// afterwards, so the snapshot trails the live arena but never leads it.
	if vm.Stats.GC.ArenaHighWater == 0 || vm.Stats.GC.ArenaHighWater > hw {
		t.Fatalf("GCStats high water %d inconsistent with arena %d",
			vm.Stats.GC.ArenaHighWater, hw)
	}
	if vm.Stats.GC.ArenaReuses == 0 || vm.Stats.GC.ArenaReuses > vm.Arena.Reuses() {
		t.Fatalf("GCStats reuses %d inconsistent with arena %d",
			vm.Stats.GC.ArenaReuses, vm.Arena.Reuses())
	}
}

// TestGCSkipsCodeSegment verifies the conservative scanner starts at the
// writable base: a NaN-box bit pattern planted inside the code segment must
// not mark (and thus keep alive) an otherwise dead arena cell.
func TestGCSkipsCodeSegment(t *testing.T) {
	prog := asm.MustAssemble(seqProg("addsd f1, =1.5"))
	var out bytes.Buffer
	m, err := machine.New(prog, &out)
	if err != nil {
		t.Fatal(err)
	}
	vm := Attach(m, Config{System: arith.Vanilla{}})
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if m.WritableBase() < 8 {
		t.Fatal("program has no code segment below the writable base")
	}
	// Kill every root — registers and all of memory — then plant a valid
	// NaN-box for a live cell inside the code segment's address range.
	for r := range m.F {
		m.F[r][0], m.F[r][1] = 0, 0
	}
	for r := range m.R {
		m.R[r] = 0
	}
	for i := range m.Mem {
		m.Mem[i] = 0
	}
	if vm.Arena.Live() == 0 {
		t.Fatal("no live cells to collect")
	}
	binary.LittleEndian.PutUint64(m.Mem[0:], nanbox.Box(0))
	vm.RunGC()
	// A scanner that still walks the code segment would find the planted
	// box and keep cell 0 alive; the restricted scanner must sweep all.
	if got := vm.Arena.Live(); got != 0 {
		t.Fatalf("GC kept %d cells alive; code-segment scan not restricted", got)
	}
}
