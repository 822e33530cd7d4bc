package machine

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"fpvm/internal/asm"
	"fpvm/internal/isa"
	"fpvm/internal/progen"
)

// runStepMemSize is the memory of every Run-versus-Step row: small, so a
// fresh machine per budget and a whole-memory compare stay cheap, and so the
// bound rows are easy to spell.
const runStepMemSize = 64 << 10

// runStepRow is one program of TestRunMatchesStep: its image, the set-up of
// a fresh machine over it (handlers, masks, sites), and a check of what a
// whole run must leave behind, which pins the row's mechanism independently
// of the dispatch loop that Run and Step share.
type runStepRow struct {
	name  string
	img   *Image
	arm   func(m *Machine)
	check func(m *Machine, err error) error
}

// TestRunMatchesStep shows that a budgeted Run and single Steps are the same
// execution: for every budget b across the first blocks of each program,
// Run(b) leaves what Steps up to b retired instructions leave (registers,
// flags, MXCSR, RIP, cycles, counters, memory, output and error text). The
// programs are the seeded progen.Raw corpus of TestRawExecutionDigest,
// natively and under the permissive trap handlers, and hand-written rows
// for the paths that leave the hot forms: a patch a handler installs on a
// later hot instruction mid-run, a correctness site on a hot load, loads and
// stores at the memory bound, halt inside a block, running off the end of
// the code, a jump off an instruction boundary, and the NaN-load extension.
func TestRunMatchesStep(t *testing.T) {
	rows := runStepHandRows(t)
	r := rand.New(rand.NewSource(100))
	for i := 0; i < 300; i++ {
		img, err := NewImage(progen.Raw(r, 40), nil)
		if err != nil {
			continue
		}
		for _, mode := range []digestMode{modeNative, modeTrap} {
			rows = append(rows, runStepRow{name: fmt.Sprintf("raw %d %s", i, mode), img: img, arm: mode.arm})
		}
	}
	for _, row := range rows {
		compareRunStep(t, row, 128)
		if row.check == nil {
			continue
		}
		var out bytes.Buffer
		m := newRunStepMachine(t, row, &out)
		if err := row.check(m, m.Run(10_000)); err != nil {
			t.Errorf("%s: %v", row.name, err)
		}
	}
}

func newRunStepMachine(t *testing.T, row runStepRow, out *bytes.Buffer) *Machine {
	t.Helper()
	m, err := NewFromImage(row.img, out, runStepMemSize)
	if err != nil {
		t.Fatalf("%s: %v", row.name, err)
	}
	m.InstallSites()
	if row.arm != nil {
		row.arm(m)
	}
	return m
}

// compareRunStep steps one machine up to each budget b in 1..maxBudget and
// compares it with a fresh machine that ran Run(b). Steps stop at the first
// that reaches b retired instructions (a coalescing delivery may pass it), as
// Run does; the stepped run's error is the step's error, else a BudgetError
// once b instructions retired, else (halted) none.
func compareRunStep(t *testing.T, row runStepRow, maxBudget int) {
	t.Helper()
	var sOut bytes.Buffer
	s := newRunStepMachine(t, row, &sOut)
	var sErr error
	for b := uint64(1); b <= uint64(maxBudget); b++ {
		for sErr == nil && !s.halted && s.Stats.Instructions < b {
			sErr = s.Step()
		}
		want := sErr
		if want == nil && s.Stats.Instructions >= b {
			want = &BudgetError{RIP: s.RIP, Budget: b}
		}
		var rOut bytes.Buffer
		r := newRunStepMachine(t, row, &rOut)
		rErr := r.Run(b)
		if d := machineDiff(r, rOut.Bytes(), rErr, s, sOut.Bytes(), want); d != "" {
			t.Errorf("%s: Run(%d) differs from stepping: %s", row.name, b, d)
			return
		}
		if sErr != nil || (s.halted && s.Stats.Instructions < b) {
			return // every larger budget ends the same way
		}
	}
}

// machineDiff names the first part of the state two runs left that differs,
// or returns "" when they left the same state.
func machineDiff(a *Machine, aOut []byte, aErr error, b *Machine, bOut []byte, bErr error) string {
	switch {
	case a.R != b.R:
		return fmt.Sprintf("R %v, want %v", a.R, b.R)
	case a.F != b.F:
		return fmt.Sprintf("F %v, want %v", a.F, b.F)
	case a.Flags != b.Flags:
		return fmt.Sprintf("flags %+v, want %+v", a.Flags, b.Flags)
	case a.MXCSR != b.MXCSR:
		return fmt.Sprintf("MXCSR %#x, want %#x", uint32(a.MXCSR), uint32(b.MXCSR))
	case a.RIP != b.RIP:
		return fmt.Sprintf("RIP %#x, want %#x", a.RIP, b.RIP)
	case a.halted != b.halted:
		return fmt.Sprintf("halted %v, want %v", a.halted, b.halted)
	case a.Cycles != b.Cycles:
		return fmt.Sprintf("cycles %d, want %d", a.Cycles, b.Cycles)
	case a.Stats != b.Stats:
		return fmt.Sprintf("stats %+v, want %+v", a.Stats, b.Stats)
	case !bytes.Equal(a.Mem, b.Mem):
		return "memory differs"
	case !bytes.Equal(aOut, bOut):
		return fmt.Sprintf("output %q, want %q", aOut, bOut)
	case fmt.Sprint(aErr) != fmt.Sprint(bErr):
		return fmt.Sprintf("error %v, want %v", aErr, bErr)
	}
	return ""
}

// runStepImage assembles src into an image whose correctness sites are the
// instructions sites selects (nil: no site table).
func runStepImage(t *testing.T, src string, sites func(in *isa.Inst) (int64, bool)) *Image {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	img, err := NewImage(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sites == nil {
		return img
	}
	table := map[uint64]int64{}
	for i := range img.insts {
		if id, ok := sites(&img.insts[i]); ok {
			table[img.insts[i].Addr] = id
		}
	}
	img, err = img.WithSites(table)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// firstAddr returns the address of the first instruction of img that
// matches.
func firstAddr(t *testing.T, img *Image, match func(in *isa.Inst) bool) uint64 {
	t.Helper()
	for i := range img.insts {
		if match(&img.insts[i]) {
			return img.insts[i].Addr
		}
	}
	t.Fatal("no matching instruction")
	return 0
}

// wantRegs checks the integer registers a row's whole run must leave.
func wantRegs(m *Machine, regs map[int]int64) error {
	for r, v := range regs {
		if m.R[r] != v {
			return fmt.Errorf("r%d = %d, want %d", r, m.R[r], v)
		}
	}
	return nil
}

// runStepHandRows are the hand-written rows of TestRunMatchesStep.
func runStepHandRows(t *testing.T) []runStepRow {
	var rows []runStepRow

	// A handler installs a patch on a later hot instruction (inc r1) at the
	// first FP trap. The patch emulates inc r1 as +100 into r6, or as +1
	// into r6 together with the following add r3, r0 (one coalesced
	// instruction), or declines, so inc r1 runs natively.
	patchImg := runStepImage(t, `.data
cell: .i64 0
.text
	mov r0, $0
	movsd f0, =1.0
	movsd f1, =3.0
loop:
	add r0, $1
	divsd f0, f1
	inc r1
	add r3, r0
	cmp r0, $6
	jl loop
	halt
`, nil)
	incAddr := firstAddr(t, patchImg, func(in *isa.Inst) bool { return in.Op == isa.OpInc })
	rows = append(rows, runStepRow{name: "patch installed mid-run", img: patchImg,
		arm: func(m *Machine) {
			m.MXCSR.SetMasks(0)
			calls := 0
			patch := func(f *TrapFrame) (bool, error) {
				calls++
				switch calls % 3 {
				case 1:
					f.M.R[6] += 100
					f.M.Advance(f.Inst)
					return true, nil
				case 2:
					f.M.R[6]++
					f.M.R[3] += f.M.R[0]
					next := f.M.insts[f.Idx+1]
					f.M.Advance(&next)
					f.Coalesced = 1
					return true, nil
				}
				return false, nil
			}
			m.FPTrap = func(f *TrapFrame) error {
				f.M.MXCSR.ClearFlags()
				f.M.Advance(f.Inst)
				if f.M.Stats.FPTraps == 1 {
					f.M.SetPatch(incAddr, patch)
				}
				return nil
			}
		},
		check: func(m *Machine, err error) error {
			if err != nil || !m.halted {
				return fmt.Errorf("halted %v, error %v", m.halted, err)
			}
			if m.Stats.PatchInvokes != 6 || m.Stats.CoalescedFP != 2 {
				return fmt.Errorf("%d patch invocations, %d coalesced, want 6 and 2", m.Stats.PatchInvokes, m.Stats.CoalescedFP)
			}
			return wantRegs(m, map[int]int64{0: 6, 1: 2, 3: 21, 6: 202})
		}})

	// A correctness site on a hot load: the handler doubles the word the
	// load reads, so every iteration adds the doubled value.
	siteImg := runStepImage(t, `.data
cell: .i64 7
.text
	mov r2, &cell
	mov r0, $0
loop:
	mov r1, [r2]
	add r0, r1
	add r4, $1
	cmp r4, $4
	jl loop
	halt
`, func(in *isa.Inst) (int64, bool) {
		return 9, in.Op == isa.OpMov && in.Ops[1].Kind == isa.KindMem
	})
	rows = append(rows, runStepRow{name: "correctness site on a hot load", img: siteImg,
		arm: func(m *Machine) {
			m.CorrectnessTrap = func(f *TrapFrame) error {
				addr := isa.EffAddr(&f.M.R, &f.Inst.Ops[1])
				v, err := f.M.ReadU64(addr)
				if err != nil {
					return err
				}
				f.M.R[7] = f.Site
				return f.M.WriteU64(addr, 2*v)
			}
		},
		check: func(m *Machine, err error) error {
			if err != nil || !m.halted || m.Stats.CorrectTraps != 4 {
				return fmt.Errorf("halted %v, error %v, %d correctness traps, want 4", m.halted, err, m.Stats.CorrectTraps)
			}
			return wantRegs(m, map[int]int64{0: 14 + 28 + 56 + 112, 7: 9})
		}})

	// Loads and stores of the last word of memory, then one byte past it.
	for _, access := range []struct{ name, inst, fault string }{
		{"load", "mov r2, [r5]", "load out of bounds: 0xfff9"},
		{"store", "mov [r5], r1", "store out of bounds: 0xfff9"},
	} {
		img := runStepImage(t, fmt.Sprintf(`
	mov r5, $%d
	mov r1, $5
	mov [r5], r1
	mov r2, [r5]
	add r5, $1
	inc r3
	%s
	inc r3
	halt
`, runStepMemSize-8, access.inst), nil)
		fault := access.fault
		rows = append(rows, runStepRow{name: access.name + " at the memory bound", img: img,
			check: func(m *Machine, err error) error {
				if fe, ok := err.(*FaultError); !ok || fe.Reason != fault {
					return fmt.Errorf("error %v, want a fault %q", err, fault)
				}
				return wantRegs(m, map[int]int64{2: 5, 3: 1})
			}})
	}

	// halt inside a straight-line block.
	rows = append(rows, runStepRow{name: "halt inside a block", img: runStepImage(t, `
	mov r1, $1
	add r1, $2
	halt
	add r1, $4
	inc r2
	halt
`, nil),
		check: func(m *Machine, err error) error {
			if err != nil || !m.halted || m.Stats.Instructions != 3 {
				return fmt.Errorf("halted %v, error %v, %d instructions, want 3", m.halted, err, m.Stats.Instructions)
			}
			return wantRegs(m, map[int]int64{1: 3, 2: 0})
		}})

	// Code without a halt runs off its end; a jump to a non-boundary
	// address faults at the next dispatch.
	for _, tail := range []struct{ name, src string }{
		{"running off the end of the code", "\tmov r1, $1\n\tinc r1\n\tadd r1, $2\n"},
		{"a jump off an instruction boundary", "\tmov r1, $1\n\tcmp r1, $2\n\tjl $1\n\thalt\n"},
	} {
		rows = append(rows, runStepRow{name: tail.name, img: runStepImage(t, tail.src, nil),
			check: func(m *Machine, err error) error {
				if fe, ok := err.(*FaultError); !ok || fe.Reason != "RIP not at an instruction boundary" {
					return fmt.Errorf("error %v, want a fault off an instruction boundary", err)
				}
				return nil
			}})
	}

	// The NaN-load extension: the handler replaces the NaN word the loop is
	// about to load with 100.
	rows = append(rows, runStepRow{name: "NaN-load trap", img: runStepImage(t, `.data
cell: .i64 1, 0x7FF8000000000001, 3
.text
	mov r2, &cell
	mov r0, $0
	mov r3, $0
loop:
	mov r1, [r2+r3*8]
	add r0, r1
	inc r3
	cmp r3, $3
	jl loop
	halt
`, nil),
		arm: func(m *Machine) {
			m.TrapOnNaNLoad = true
			m.CorrectnessTrap = func(f *TrapFrame) error {
				f.M.R[7] = f.Site
				return f.M.WriteU64(isa.EffAddr(&f.M.R, &f.Inst.Ops[1]), 100)
			}
		},
		check: func(m *Machine, err error) error {
			if err != nil || !m.halted || m.Stats.CorrectTraps != 1 {
				return fmt.Errorf("halted %v, error %v, %d correctness traps, want 1", m.halted, err, m.Stats.CorrectTraps)
			}
			return wantRegs(m, map[int]int64{0: 104, 7: -2})
		}})
	return rows
}
