package fpvm

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"fpvm/internal/arith"
	"fpvm/internal/asm"
	"fpvm/internal/machine"
	"fpvm/internal/workloads"
)

// TestSpyRecordsCauses: the recorded flags must reflect the actual events.
func TestSpyRecordsCauses(t *testing.T) {
	prog := asm.MustAssemble(`
	.data
	z: .f64 0.0
	.text
		movsd f0, =1.0
		movsd f1, =3.0
		divsd f0, f1        ; PE (rounds)
		movsd f2, [z]
		movsd f3, =1.0
		divsd f3, f2        ; ZE (divide by zero)
		sqrtsd f4, =2.0     ; hmm: sqrt with mem operand, PE
		halt
	`)
	m, _ := machine.New(prog, nil)
	spy := AttachSpy(m)
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	foundPE, foundZE := false, false
	for flag := range spy.Stats.ByFlag {
		if strings.Contains(flag, "PE") {
			foundPE = true
		}
		if strings.Contains(flag, "ZE") {
			foundZE = true
		}
	}
	if !foundPE || !foundZE {
		t.Fatalf("recorded flags %v missing PE or ZE", spy.Stats.ByFlag)
	}
	if spy.Stats.ByOp["divsd"] != 2 {
		t.Errorf("divsd events = %d, want 2", spy.Stats.ByOp["divsd"])
	}
}

// TestSpyDivideByZeroProducesInf: the masked IEEE response must appear.
func TestSpyDivideByZeroProducesInf(t *testing.T) {
	prog := asm.MustAssemble(`
	.data
	z: .f64 0.0
	.text
		movsd f0, =1.0
		divsd f0, [z]
		outf f0
		halt
	`)
	var out bytes.Buffer
	m, _ := machine.New(prog, &out)
	AttachSpy(m)
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Inf") && !strings.Contains(out.String(), "inf") {
		t.Fatalf("1/0 under FPSpy printed %q, want +Inf", out.String())
	}
}

// TestSpyReport renders without error and includes the hot site.
func TestSpyReport(t *testing.T) {
	w, _ := workloads.Get("Lorenz Attractor/")
	prog, _ := w.Build()
	m, _ := machine.New(prog, nil)
	spy := AttachSpy(m)
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	spy.Report(&buf, 5)
	out := buf.String()
	for _, want := range []string{"events observed", "by condition", "hottest"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestSpyCountsBoundFPVM: FPVM's trap count dominates FPSpy's event count
// on the same binary (boxed-operand traps add to the hardware events).
func TestSpyCountsMatchFPVM(t *testing.T) {
	w, _ := workloads.Get("Three-Body/")
	prog, _ := w.Build()
	m1, _ := machine.New(prog, nil)
	spy := AttachSpy(m1)
	if err := m1.Run(0); err != nil {
		t.Fatal(err)
	}

	prog2, _ := w.Build()
	m2, _ := machine.New(prog2, nil)
	vm := Attach(m2, Config{System: arith.Vanilla{}})
	if err := m2.Run(0); err != nil {
		t.Fatal(err)
	}
	// FPVM must trap at least as often as FPSpy observes events: FPSpy only
	// sees hardware conditions (rounding etc.), while FPVM additionally
	// traps whenever a NaN-boxed value is consumed, even by an operation
	// that would have been exact.
	if spy.Stats.Events > vm.Stats.Traps {
		t.Fatalf("FPSpy saw %d events > FPVM %d traps", spy.Stats.Events, vm.Stats.Traps)
	}
	if spy.Stats.Events == 0 {
		t.Fatal("no events")
	}
}

// TestSpyReportDeterministic: rows with equal counts print in one order on
// every call, ops and flags by name and sites by address, so two runs of
// the same program give byte-equal reports.
func TestSpyReportDeterministic(t *testing.T) {
	prog := asm.MustAssemble(`
		movsd f0, =1.0
		movsd f1, =3.0
		divsd f0, f1
		addsd f0, f1
		mulsd f0, f1
		subsd f0, f1
		halt
	`)
	m, _ := machine.New(prog, nil)
	spy := &Spy{M: m}
	spy.Stats = SpyStats{
		Events: 42,
		ByFlag: map[string]uint64{"PE": 7, "OE|PE": 7, "ZE": 7, "IE": 9, "UE|PE": 1},
		ByOp:   map[string]uint64{"subsd": 5, "mulsd": 5, "divsd": 5, "addsd": 5, "sqrtsd": 9, "fsin": 1},
		BySite: map[uint64]uint64{},
	}
	// Sites in ascending address order; even positions get 3 events and
	// odd ones 2, so each count is a tie.
	addrs := []uint64{0x00, 0x08, 0x10, 0x18, 0x20, 0x28}
	for i, a := range addrs {
		spy.Stats.BySite[a] = uint64(3 - i%2)
	}
	var first bytes.Buffer
	spy.Report(&first, len(addrs))
	for i := 0; i < 20; i++ {
		var again bytes.Buffer
		spy.Report(&again, len(addrs))
		if again.String() != first.String() {
			t.Fatalf("report %d differs:\n%s\nwant:\n%s", i, again.String(), first.String())
		}
	}
	want := []string{"IE", "OE|PE", "PE", "ZE", "UE|PE", "sqrtsd", "addsd", "divsd", "mulsd", "subsd", "fsin"}
	rest := first.String()
	for _, w := range want {
		i := strings.Index(rest, "  "+w+" ")
		if i < 0 {
			t.Fatalf("row %q missing or out of order in:\n%s", w, first.String())
		}
		rest = rest[i+len(w):]
	}
	// Sites: the count-3 sites by ascending address, then the count-2 ones.
	var order []uint64
	for i := 0; i < len(addrs); i += 2 {
		order = append(order, addrs[i])
	}
	for i := 1; i < len(addrs); i += 2 {
		order = append(order, addrs[i])
	}
	rest = first.String()[strings.Index(first.String(), "hottest"):]
	for _, a := range order {
		i := strings.Index(rest, fmt.Sprintf("  %#06x ", a))
		if i < 0 {
			t.Fatalf("site %#x missing or out of order in:\n%s", a, first.String())
		}
		rest = rest[i+1:]
	}
}
