package machine

import (
	"testing"

	"fpvm/internal/asm"
	"fpvm/internal/fpu"
	"fpvm/internal/isa"
)

// trapLoopProg is an endless loop around one trapping divide (1/3 rounds,
// raising PE) and one integer move that loads from memory.
const trapLoopProg = `
	.data
	x: .i64 7
	.text
		movsd f0, =1.0
		movsd f1, =3.0
	loop:
		divsd f0, f1
		mov r1, [x]
		jmp loop
`

// newTrapLoop returns a machine on trapLoopProg with every exception
// unmasked, a minimal FP-trap handler that retires the divide, the path
// under test installed by setup before the first instruction retires, and
// RIP parked at the loop head.
func newTrapLoop(t *testing.T, setup func(*testing.T, *Machine)) *Machine {
	t.Helper()
	m, err := New(asm.MustAssemble(trapLoopProg), nil)
	if err != nil {
		t.Fatal(err)
	}
	setup(t, m)
	m.MXCSR.SetMasks(0)
	m.FPTrap = func(f *TrapFrame) error {
		f.M.MXCSR.ClearFlags()
		f.M.Advance(f.Inst)
		return nil
	}
	for i := 0; i < 2; i++ { // the two constant loads
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// loopAddr returns the address of the first instruction with op.
func loopAddr(t *testing.T, m *Machine, op isa.Op) uint64 {
	t.Helper()
	for _, in := range m.Insts() {
		if in.Op == op {
			return in.Addr
		}
	}
	t.Fatalf("no %v in program", op)
	return 0
}

// TrapForm is one operand form of a trapping FP op. Its program ends in an
// endless three-instruction loop whose second instruction traps on every
// trip: a constant load into f0, then the op with f0 as its destination.
type TrapForm struct {
	Name    string // "<op>/<form>", e.g. "div/reg"
	Src     string // the program
	Prelude int    // instructions before the loop
	Boxed   bool   // the source is the NaN-box the prelude's divide leaves in f1
}

// TrapForms returns the forms the trap-path benchmarks and allocation gates
// cover: add, mul, div and sqrt, each with a promoted register source
// ("reg", f1 = 3.0), a NaN-boxed register source ("boxed", f1 = 3/7, which
// traps under FPVM and is boxed) and a memory source ("mem", a data word
// holding 3.0). Every result is inexact, so a plain source traps on PE and
// a boxed one on IE.
func TrapForms() []TrapForm {
	var forms []TrapForm
	for _, op := range []struct{ name, mnemonic, f0 string }{
		{"add", "addsd", "0.1"}, {"mul", "mulsd", "0.1"}, {"div", "divsd", "1.0"}, {"sqrt", "sqrtsd", "1.0"},
	} {
		for _, form := range []struct {
			name, src string
			boxed     bool
		}{{"reg", "f1", false}, {"boxed", "f1", true}, {"mem", "[x]", false}} {
			prelude := "\tmovsd f1, =3.0\n\tmovsd f3, =7.0\n"
			n := 2
			if form.boxed {
				prelude += "\tdivsd f1, f3\n"
				n++
			}
			forms = append(forms, TrapForm{
				Name: op.name + "/" + form.name,
				Src: ".data\nx: .f64 3.0\n.text\n" + prelude + "loop:\n\tmovsd f0, =" + op.f0 +
					"\n\t" + op.mnemonic + " f0, " + form.src + "\n\tjmp loop\n",
				Prelude: n,
				Boxed:   form.boxed,
			})
		}
	}
	return forms
}

// TestTrapPathAllocatesNothing gates the three delivery paths of a warm
// machine: a trapping Step whose handler only advances RIP, a patched site,
// and a correctness-site delivery each allocate nothing. The trapping Step
// is also gated on every TrapForms form, with the boxed source's NaN-box
// written into f1 directly (the minimal handler boxes nothing).
func TestTrapPathAllocatesNothing(t *testing.T) {
	cases := []struct {
		name      string
		setup     func(*testing.T, *Machine) // installs the path under test
		delivered func(*testing.T, *Machine) uint64
	}{
		{"fp-trap", func(*testing.T, *Machine) {}, func(t *testing.T, m *Machine) uint64 {
			if m.Stats.TrapByFlag[fpu.FlagInexact] != m.Stats.FPTraps {
				t.Errorf("TrapByFlag[PE] = %d, want every one of the %d traps",
					m.Stats.TrapByFlag[fpu.FlagInexact], m.Stats.FPTraps)
			}
			return m.Stats.FPTraps
		}},
		{"patch", func(t *testing.T, m *Machine) {
			m.SetPatch(loopAddr(t, m, isa.OpDivsd), func(f *TrapFrame) (bool, error) {
				f.M.Advance(f.Inst)
				return true, nil
			})
		}, func(_ *testing.T, m *Machine) uint64 { return m.Stats.PatchInvokes }},
		{"correctness-site", func(t *testing.T, m *Machine) {
			loadSites(t, m, map[uint64]int64{loopAddr(t, m, isa.OpMov): 3})
			m.CorrectnessTrap = func(*TrapFrame) error { return nil }
		}, func(_ *testing.T, m *Machine) uint64 { return m.Stats.CorrectTraps }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := newTrapLoop(t, c.setup)
			a := testing.AllocsPerRun(200, func() {
				for i := 0; i < 3; i++ { // one trip around the loop
					if err := m.Step(); err != nil {
						t.Fatal(err)
					}
				}
			})
			if a != 0 {
				t.Errorf("%.1f allocations per loop trip, want 0", a)
			}
			if c.delivered(t, m) == 0 {
				t.Error("the path under test never ran")
			}
		})
	}
	for _, fm := range TrapForms() {
		t.Run("form/"+fm.Name, func(t *testing.T) {
			m, err := New(asm.MustAssemble(fm.Src), nil)
			if err != nil {
				t.Fatal(err)
			}
			m.MXCSR.SetMasks(0)
			m.FPTrap = func(f *TrapFrame) error {
				f.M.MXCSR.ClearFlags()
				f.M.Advance(f.Inst)
				return nil
			}
			for i := 0; i < fm.Prelude; i++ {
				if err := m.Step(); err != nil {
					t.Fatal(err)
				}
			}
			if fm.Boxed {
				m.F[1][0] = 0x7FF0000000000006 // the NaN-box of key 5
			}
			before := m.Stats.FPTraps
			const trips = 200
			a := testing.AllocsPerRun(trips, func() {
				for i := 0; i < 3; i++ {
					if err := m.Step(); err != nil {
						t.Fatal(err)
					}
				}
			})
			if a != 0 {
				t.Errorf("%.1f allocations per loop trip, want 0", a)
			}
			if got := m.Stats.FPTraps - before; got != trips+1 {
				t.Errorf("%d FP traps in %d trips, want one per trip", got, trips+1)
			}
		})
	}
}

// frameView is the comparable part of a TrapFrame.
type frameView struct {
	cause     TrapCause
	idx       int
	addr      uint64
	site      int64
	flags     fpu.Flags
	coalesced int
}

func viewOf(f *TrapFrame) frameView {
	return frameView{f.Cause, f.Idx, f.Inst.Addr, f.Site, f.Flags, f.Coalesced}
}

// TestTrapFrameContract pins the frame ownership rule: every delivery sees a
// frame describing its own trap, whatever an earlier handler wrote into the
// machine-owned storage, and a delivery nested inside a patch handler (one
// that calls Step itself, so the nested frame comes from the heap fallback)
// leaves the outer handler's frame untouched.
func TestTrapFrameContract(t *testing.T) {
	prog := asm.MustAssemble(`
		movsd f0, =1.0
		movsd f1, =3.0
		divsd f0, f1     ; correctness site 7, then an FP trap (PE)
		addsd f0, f1     ; patched: a two-instruction superblock-style hit
		subsd f0, f1
		trapc $5         ; glue the patch handler steps through itself
		halt
	`)
	m, err := New(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.MXCSR.SetMasks(0)
	insts := m.Insts()
	var seen []frameView
	record := func(f *TrapFrame) {
		if f.M != m {
			t.Errorf("frame names machine %p, want %p", f.M, m)
		}
		seen = append(seen, viewOf(f))
		f.Coalesced = 99 // scribble: the next delivery must not see it
		f.Site = 99
	}
	loadSites(t, m, map[uint64]int64{insts[2].Addr: 7})
	m.CorrectnessTrap = func(f *TrapFrame) error {
		record(f)
		return nil
	}
	m.FPTrap = func(f *TrapFrame) error {
		record(f)
		f.M.MXCSR.ClearFlags()
		f.M.Advance(f.Inst)
		f.Coalesced = 0
		return nil
	}
	m.SetPatch(insts[3].Addr, func(f *TrapFrame) (bool, error) {
		record(f)
		outer := viewOf(f)
		f.M.Advance(&insts[4]) // retire addsd and subsd under one dispatch
		// Step through the glue: the trapc delivers a correctness trap
		// nested inside this handler.
		if err := f.M.Step(); err != nil {
			return false, err
		}
		if got := viewOf(f); got != outer {
			t.Errorf("nested delivery rewrote the outer frame: %+v, want %+v", got, outer)
		}
		f.Coalesced = 1
		return true, nil
	})
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}

	at := func(i int) uint64 { return insts[i].Addr }
	want := []frameView{
		{CauseCorrectness, 2, at(2), 7, 0, 0},               // the site on the divide
		{CauseFPException, 2, at(2), 0, fpu.FlagInexact, 0}, // the divide's own trap
		{CauseFPException, 3, at(3), 0, 0, 0},               // the patch dispatch
		{CauseCorrectness, 5, at(5), 5, 0, 0},               // trapc nested in it
	}
	if len(seen) != len(want) {
		t.Fatalf("saw %d deliveries, want %d: %+v", len(seen), len(want), seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Errorf("delivery %d saw %+v, want %+v", i, seen[i], want[i])
		}
	}
	if m.Stats.Instructions != uint64(len(insts)) || m.Stats.CoalescedFP != 1 {
		t.Errorf("Instructions = %d, CoalescedFP = %d; want %d, 1",
			m.Stats.Instructions, m.Stats.CoalescedFP, len(insts))
	}
	if m.frameDepth != 0 {
		t.Errorf("frameDepth = %d after the run, want 0", m.frameDepth)
	}
}

// TestExecMaskedChargesMemoryCost pins ExecMasked to the dispatch loop's
// cost: it bypasses the side-table entries but charges the image's charge
// for the instruction, memory operand included, so a degraded instruction
// costs what native execution of it costs.
func TestExecMaskedChargesMemoryCost(t *testing.T) {
	prog := asm.MustAssemble(`
	.data
	x: .f64 3.0
	.text
		addsd f0, [x]
		halt
	`)
	native, err := New(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := native.Step(); err != nil {
		t.Fatal(err)
	}
	masked, err := New(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := masked.ExecMasked(0); err != nil {
		t.Fatal(err)
	}
	c := DefaultCostModel()
	want := c.FPAddMul + c.MemAccess
	if native.Cycles != want || masked.Cycles != want {
		t.Errorf("cycles: Step %d, ExecMasked %d; want %d for both", native.Cycles, masked.Cycles, want)
	}
}
