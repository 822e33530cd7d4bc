package telemetry_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	fpvmapi "fpvm"
	"fpvm/internal/arith"
	"fpvm/internal/fpu"
	"fpvm/internal/fpvm"
	"fpvm/internal/isa"
	"fpvm/internal/machine"
	"fpvm/internal/telemetry"
	"fpvm/internal/workloads"
)

func TestRingOverflowSemantics(t *testing.T) {
	r := telemetry.NewRing(4)
	if r.Cap() != 4 {
		t.Fatalf("Cap() = %d, want 4", r.Cap())
	}
	if r.Len() != 0 || r.Total() != 0 || r.Dropped() != 0 {
		t.Fatalf("fresh ring not empty: len=%d total=%d dropped=%d",
			r.Len(), r.Total(), r.Dropped())
	}
	if got := r.Snapshot(); len(got) != 0 {
		t.Fatalf("fresh ring snapshot has %d events", len(got))
	}

	for i := 0; i < 3; i++ {
		r.Record(telemetry.Event{PC: uint64(i)})
	}
	if r.Len() != 3 || r.Dropped() != 0 {
		t.Fatalf("before overflow: len=%d dropped=%d, want 3/0", r.Len(), r.Dropped())
	}

	// Push past capacity: the oldest events must be overwritten, the newest
	// retained, and Dropped must account for the loss.
	for i := 3; i < 10; i++ {
		r.Record(telemetry.Event{PC: uint64(i)})
	}
	if r.Len() != 4 {
		t.Fatalf("after overflow Len() = %d, want 4", r.Len())
	}
	if r.Total() != 10 {
		t.Fatalf("after overflow Total() = %d, want 10", r.Total())
	}
	if r.Dropped() != 6 {
		t.Fatalf("after overflow Dropped() = %d, want 6", r.Dropped())
	}
	snap := r.Snapshot()
	for i, ev := range snap {
		if want := uint64(6 + i); ev.PC != want {
			t.Fatalf("snapshot[%d].PC = %d, want %d (oldest-first ordering)", i, ev.PC, want)
		}
	}
}

func TestNewRingDefaultsCapacity(t *testing.T) {
	for _, c := range []int{0, -5} {
		if got := telemetry.NewRing(c).Cap(); got != telemetry.DefaultRingCap {
			t.Errorf("NewRing(%d).Cap() = %d, want DefaultRingCap %d",
				c, got, telemetry.DefaultRingCap)
		}
	}
}

func TestSiteAggregation(t *testing.T) {
	c := telemetry.NewCollector(16)

	// Two FP deliveries at idx 3, one coalescing 4 extra instructions.
	c.TrapEnter(telemetry.CauseFP, 3, 0x30, isa.OpMulsd, fpu.FlagInexact, 100)
	c.TrapExit(telemetry.CauseFP, 3, 0x30, isa.OpMulsd, fpu.FlagInexact, 50, 0, 150)
	c.TrapEnter(telemetry.CauseFP, 3, 0x30, isa.OpMulsd, fpu.FlagOverflow, 200)
	c.TrapExit(telemetry.CauseFP, 3, 0x30, isa.OpMulsd, fpu.FlagOverflow, 70, 4, 270)
	// One correctness and one external delivery at idx 5.
	c.TrapExit(telemetry.CauseCorrectness, 5, 0x50, isa.OpAddsd, 0, 30, 0, 300)
	c.TrapExit(telemetry.CauseExternal, 5, 0x50, isa.OpAddsd, 0, 20, 0, 320)

	sites := c.Sites()
	if len(sites) != 6 {
		t.Fatalf("site table has %d rows, want 6 (dense through idx 5)", len(sites))
	}
	s := sites[3]
	if s.PC != 0x30 || s.Op != isa.OpMulsd {
		t.Errorf("site 3 identity = pc %#x op %v, want 0x30 mulsd", s.PC, s.Op)
	}
	if s.Traps != 2 || s.Cycles != 120 {
		t.Errorf("site 3 traps/cycles = %d/%d, want 2/120", s.Traps, s.Cycles)
	}
	if s.Flags != fpu.FlagInexact|fpu.FlagOverflow {
		t.Errorf("site 3 flags = %v, want union of inexact|overflow", s.Flags)
	}
	if s.Coalesced != 4 || s.RunSum != 6 || s.MaxRun != 5 {
		t.Errorf("site 3 runs: coalesced=%d runsum=%d maxrun=%d, want 4/6/5",
			s.Coalesced, s.RunSum, s.MaxRun)
	}
	if got, want := s.MeanRun(), 3.0; got != want {
		t.Errorf("site 3 MeanRun() = %v, want %v", got, want)
	}
	if z := (&telemetry.Site{}); z.MeanRun() != 0 {
		t.Errorf("zero site MeanRun() = %v, want 0", z.MeanRun())
	}

	fp, correct, ext := c.TrapTotals()
	if fp != 2 || correct != 1 || ext != 1 {
		t.Errorf("TrapTotals = %d/%d/%d, want 2/1/1", fp, correct, ext)
	}
}

func TestTopSitesRankingAndTruncation(t *testing.T) {
	c := telemetry.NewCollector(16)
	// Three sites: cycles 10, 30, 30 — ranked by cycles desc, PC asc on tie.
	c.TrapExit(telemetry.CauseFP, 0, 0x10, isa.OpAddsd, fpu.FlagInexact, 10, 0, 0)
	c.TrapExit(telemetry.CauseFP, 1, 0x20, isa.OpMulsd, fpu.FlagInexact, 30, 0, 0)
	c.TrapExit(telemetry.CauseFP, 2, 0x08, isa.OpDivsd, fpu.FlagDivZero, 30, 0, 0)

	all := c.TopSites(0)
	if len(all) != 3 {
		t.Fatalf("TopSites(0) returned %d rows, want 3", len(all))
	}
	if all[0].PC != 0x08 || all[1].PC != 0x20 || all[2].PC != 0x10 {
		t.Errorf("ranking order = %#x,%#x,%#x; want 0x08,0x20,0x10",
			all[0].PC, all[1].PC, all[2].PC)
	}
	if top := c.TopSites(2); len(top) != 2 || top[0].PC != 0x08 {
		t.Errorf("TopSites(2) = %v, want the 2 hottest rows", top)
	}
	if got := c.TopSites(99); len(got) != 3 {
		t.Errorf("TopSites(99) = %d rows, want all 3", len(got))
	}
}

func TestWriteTopSitesReport(t *testing.T) {
	c := telemetry.NewCollector(2)
	c.TrapExit(telemetry.CauseFP, 0, 0x40, isa.OpSqrtsd, fpu.FlagInvalid, 25, 0, 0)
	c.TrapExit(telemetry.CauseFP, 0, 0x40, isa.OpSqrtsd, fpu.FlagInvalid, 25, 0, 0)
	// Overflow the 2-slot ring so the report must mention the retained window.
	c.Promotion(0x40, 1)

	var buf bytes.Buffer
	c.WriteTopSites(&buf, 10)
	out := buf.String()
	for _, want := range []string{
		"trap telemetry: 1 sites, 2 deliveries, 50 attributed cycles",
		"sqrtsd",
		"IE",
		"overwritten",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestWriteJSONLShape(t *testing.T) {
	c := telemetry.NewCollector(8)
	c.TrapEnter(telemetry.CauseFP, 1, 0x18, isa.OpAddsd, fpu.FlagInexact, 10)
	c.TrapExit(telemetry.CauseFP, 1, 0x18, isa.OpAddsd, fpu.FlagInexact, 40, 2, 50)
	c.GCEpoch(7, 3, 60)
	c.Correctness(2, 0x20, isa.OpMulsd, 11, 70)

	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", len(lines)+1, err, sc.Text())
		}
		lines = append(lines, m)
	}
	if len(lines) != 5 {
		t.Fatalf("got %d JSONL lines, want header + 4 events", len(lines))
	}
	head := lines[0]
	if head["ev"] != "trace-header" {
		t.Fatalf("first line ev = %v, want trace-header", head["ev"])
	}
	for _, k := range []string{"total_events", "retained_events", "overwritten_events", "ring_capacity"} {
		if _, ok := head[k]; !ok {
			t.Errorf("trace-header missing field %q: %v", k, head)
		}
	}
	wantEv := []string{"trap-enter", "trap-exit", "gc-epoch", "correctness"}
	for i, want := range wantEv {
		if got := lines[i+1]["ev"]; got != want {
			t.Errorf("event %d ev = %v, want %q", i, got, want)
		}
	}
	if got := lines[2]["aux"]; got != float64(2) {
		t.Errorf("trap-exit aux (coalesced) = %v, want 2", got)
	}
	if got := lines[1]["flags"]; got != "IE|PE" && got != "PE" {
		// Flags string must at least carry the inexact bit.
		if s, _ := got.(string); !strings.Contains(s, "PE") {
			t.Errorf("trap-enter flags = %v, want to contain PE", got)
		}
	}
}

// runLorenz executes the Lorenz workload under FPVM+MPFR with a collector
// attached, through the root one-shot API (analyze, patch, attach, run).
func runLorenz(t *testing.T, maxSeq int) (*machine.Machine, *fpvm.VM, *telemetry.Collector) {
	t.Helper()
	w, ok := workloads.Get("Lorenz Attractor/")
	if !ok {
		t.Fatal("Lorenz Attractor workload not registered")
	}
	prog, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	m, err := fpvmapi.NewMachine(prog, &out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fpvmapi.AnalyzeAndPatch(prog, m); err != nil {
		t.Fatal(err)
	}
	c := telemetry.NewCollector(0)
	m.Telem = c
	vm := fpvm.Attach(m, fpvm.Config{System: arith.NewMPFR(200), MaxSequenceLen: maxSeq})
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	return m, vm, c
}

// TestTopSiteTrapCountsMatchStats is the acceptance cross-check from the
// issue: on the Lorenz workload the summed per-PC trap counts of the site
// table must equal the runtime's aggregate Stats counters exactly.
func TestTopSiteTrapCountsMatchStats(t *testing.T) {
	m, vm, c := runLorenz(t, 0)
	fp, correct, ext := c.TrapTotals()
	if fp != vm.Stats.Traps {
		t.Errorf("site-table fp traps = %d, vm.Stats.Traps = %d", fp, vm.Stats.Traps)
	}
	if correct != vm.Stats.CorrectTraps {
		t.Errorf("site-table correctness traps = %d, vm.Stats.CorrectTraps = %d",
			correct, vm.Stats.CorrectTraps)
	}
	if got, want := fp+correct+ext, m.Stats.Trap.Delivered; got != want {
		t.Errorf("site-table deliveries = %d, machine delivered = %d", got, want)
	}
	if vm.Stats.Traps == 0 {
		t.Fatal("Lorenz under MPFR produced no FP traps; cross-check is vacuous")
	}
	// The rendered ranking's deliveries line must agree with the same totals.
	var buf bytes.Buffer
	c.WriteTopSites(&buf, 5)
	if want := "deliveries"; !strings.Contains(buf.String(), want) {
		t.Errorf("report missing %q:\n%s", want, buf.String())
	}
}

// TestSequenceTelemetryAccounting checks the coalesced-run accounting under
// sequence emulation: the site table's run-length sums must reconstruct the
// VM's aggregate sequence counters.
func TestSequenceTelemetryAccounting(t *testing.T) {
	_, vm, c := runLorenz(t, 16)
	if vm.Stats.Sequences == 0 {
		t.Skip("Lorenz under seqemu produced no sequences")
	}
	var coalesced, runSum uint64
	for _, s := range c.Sites() {
		coalesced += s.Coalesced
		runSum += s.RunSum
	}
	if coalesced != vm.Stats.Coalesced {
		t.Errorf("site-table coalesced sum = %d, vm.Stats.Coalesced = %d",
			coalesced, vm.Stats.Coalesced)
	}
	if want := vm.Stats.Traps + vm.Stats.Coalesced; runSum != want {
		t.Errorf("site-table run sum = %d, want traps+coalesced = %d", runSum, want)
	}
}
