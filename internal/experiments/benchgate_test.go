package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// gateDoc builds a minimal two-row document for gate tests.
func gateDoc() *BenchDoc {
	return &BenchDoc{
		Schema:  1,
		Options: BenchOptions{Prec: 200, Quick: true, SeqLen: 16},
		Rows: []BenchRow{
			{Workload: "FBench", System: "vanilla", SeqLen: 16,
				VirtCycles: 1000, FPTraps: 40, NsPerStep: 400},
			{Workload: "Three-Body", System: "mpfr", SeqLen: 16,
				VirtCycles: 2000, FPTraps: 80, NsPerStep: 10},
		},
		SessionLoad: &SessionLoad{Workload: "FBench/", System: "vanilla",
			Sessions: 500, Workers: 16, PerSec: 400},
	}
}

func TestGateBenchIdenticalPasses(t *testing.T) {
	if bad := GateBench(gateDoc(), gateDoc()); len(bad) != 0 {
		t.Fatalf("identical documents failed the gate: %v", bad)
	}
}

func TestGateBenchImprovementPasses(t *testing.T) {
	base, cur := gateDoc(), gateDoc()
	cur.Rows[0].VirtCycles = 500
	cur.Rows[0].FPTraps = 10
	cur.Rows[0].NsPerStep = 100
	cur.SessionLoad.Sessions = 1000
	if bad := GateBench(base, cur); len(bad) != 0 {
		t.Fatalf("improvement failed the one-sided gate: %v", bad)
	}
}

func TestGateBenchCycleRegression(t *testing.T) {
	base, cur := gateDoc(), gateDoc()
	cur.Rows[0].VirtCycles = 1100 // +10% > 1% slack
	bad := GateBench(base, cur)
	if len(bad) != 1 || !strings.Contains(bad[0], "virt cycles") {
		t.Fatalf("cycle regression not caught: %v", bad)
	}
}

func TestGateBenchTrapRegression(t *testing.T) {
	base, cur := gateDoc(), gateDoc()
	cur.Rows[1].FPTraps = 100
	bad := GateBench(base, cur)
	if len(bad) != 1 || !strings.Contains(bad[0], "fp traps") {
		t.Fatalf("trap regression not caught: %v", bad)
	}
}

func TestGateBenchWallRegressionAndFloor(t *testing.T) {
	base, cur := gateDoc(), gateDoc()
	// Row 0 sits above the 50ns floor: a >4x slowdown must trip the gate.
	cur.Rows[0].NsPerStep = 2000
	// Row 1 sits below the floor: even a huge relative jump is noise.
	cur.Rows[1].NsPerStep = 45
	bad := GateBench(base, cur)
	if len(bad) != 1 || !strings.Contains(bad[0], "ns/step") {
		t.Fatalf("wall-clock gate misfired: %v", bad)
	}
	if !strings.Contains(bad[0], "FBench") {
		t.Fatalf("below-floor row tripped the wall gate: %v", bad)
	}
}

func TestGateBenchMissingRow(t *testing.T) {
	base, cur := gateDoc(), gateDoc()
	cur.Rows = cur.Rows[:1]
	bad := GateBench(base, cur)
	if len(bad) != 1 || !strings.Contains(bad[0], "disappeared") {
		t.Fatalf("dropped row not caught: %v", bad)
	}
}

func TestGateBenchOptionsMismatch(t *testing.T) {
	base, cur := gateDoc(), gateDoc()
	cur.Options.SeqLen = 8
	bad := GateBench(base, cur)
	if len(bad) != 1 || !strings.Contains(bad[0], "not comparable") {
		t.Fatalf("options mismatch not caught: %v", bad)
	}
}

func TestGateBenchSessionLoad(t *testing.T) {
	base, cur := gateDoc(), gateDoc()
	cur.SessionLoad = nil
	if bad := GateBench(base, cur); len(bad) != 1 || !strings.Contains(bad[0], "disappeared") {
		t.Fatalf("missing session-load record not caught: %v", bad)
	}

	cur = gateDoc()
	cur.SessionLoad.Errors = 3
	if bad := GateBench(base, cur); len(bad) != 1 || !strings.Contains(bad[0], "failed") {
		t.Fatalf("session-load errors not caught: %v", bad)
	}

	cur = gateDoc()
	cur.SessionLoad.Sessions = 100
	if bad := GateBench(base, cur); len(bad) != 1 || !strings.Contains(bad[0], "shrank") {
		t.Fatalf("session-load shrinkage not caught: %v", bad)
	}

	// A baseline without a session-load record imposes no session requirement.
	base.SessionLoad = nil
	cur = gateDoc()
	cur.SessionLoad = nil
	if bad := GateBench(base, cur); len(bad) != 0 {
		t.Fatalf("no-session baseline should not gate sessions: %v", bad)
	}
}

// TestReadBenchDocCheckedIn proves the checked-in baseline parses and gates
// cleanly against itself — the invariant `make bench-gate` depends on.
func TestReadBenchDocCheckedIn(t *testing.T) {
	path := filepath.Join("..", "..", "BENCH_6.json")
	doc, err := ReadBenchDoc(path)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Schema != 1 || len(doc.Rows) == 0 {
		t.Fatalf("baseline malformed: schema %d, %d rows", doc.Schema, len(doc.Rows))
	}
	if doc.SessionLoad == nil || doc.SessionLoad.Sessions < 500 {
		t.Fatalf("baseline missing the >=500-session load record: %+v", doc.SessionLoad)
	}
	if bad := GateBench(doc, doc); len(bad) != 0 {
		t.Fatalf("baseline does not gate cleanly against itself: %v", bad)
	}
}

func TestReadBenchDocRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"schema":1,"rows":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBenchDoc(empty); err == nil {
		t.Error("empty document accepted")
	}
	legacy := filepath.Join(dir, "legacy.json")
	if err := os.WriteFile(legacy, []byte(`[{"workload":"x"}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBenchDoc(legacy); err == nil {
		t.Error("legacy row-array document accepted")
	}
	if _, err := ReadBenchDoc(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestGateBenchSessionLoadShed(t *testing.T) {
	shedDoc := func() *BenchDoc {
		d := gateDoc()
		d.SessionLoadShed = &SessionLoad{Workload: "FBench/", System: "vanilla",
			Sessions: 500, Workers: 16, PerSec: 380}
		return d
	}
	if bad := GateBench(shedDoc(), shedDoc()); len(bad) != 0 {
		t.Fatalf("identical shed records failed the gate: %v", bad)
	}

	base, cur := shedDoc(), shedDoc()
	cur.SessionLoadShed.Errors = 2
	if bad := GateBench(base, cur); len(bad) != 1 || !strings.Contains(bad[0], "shed session load") {
		t.Fatalf("shed errors not caught: %v", bad)
	}

	cur = shedDoc()
	cur.SessionLoadShed.Quarantined = 1
	if bad := GateBench(base, cur); len(bad) != 1 || !strings.Contains(bad[0], "misfiring") {
		t.Fatalf("clean-load quarantine not caught: %v", bad)
	}

	cur = shedDoc()
	cur.SessionLoadShed.PerSec = 100 // < 0.5 * the unarmed record's 400
	if bad := GateBench(base, cur); len(bad) != 1 || !strings.Contains(bad[0], "cost too much") {
		t.Fatalf("checkpoint overhead not caught: %v", bad)
	}

	cur = shedDoc()
	cur.SessionLoadShed = nil
	if bad := GateBench(base, cur); len(bad) != 1 || !strings.Contains(bad[0], "disappeared") {
		t.Fatalf("missing shed record not caught: %v", bad)
	}

	// The shed bars are within-document: a current document carrying the
	// record is held to them even when the baseline predates it.
	base.SessionLoadShed = nil
	cur = shedDoc()
	cur.SessionLoadShed.Quarantined = 3
	if bad := GateBench(base, cur); len(bad) != 1 || !strings.Contains(bad[0], "misfiring") {
		t.Fatalf("pre-shed baseline should not disable the within-document bars: %v", bad)
	}
}

// TestGateBenchWarmPool pins the within-document warm-pool bars: the
// shared-cache record must compile at most the first wave's traces and
// model fewer cycles per session than the cold record. Sessions/sec is not
// compared: on a small host it moves with the load, not with the cache.
func TestGateBenchWarmPool(t *testing.T) {
	warmDoc := func() *BenchDoc {
		d := gateDoc()
		d.SessionLoad.SBCompiled = 500 * 4
		d.SessionLoad.MeanCycles = 3_000_000
		d.SessionLoadShared = &SessionLoad{Workload: "FBench/", System: "vanilla",
			Sessions: 500, Workers: 16, PerSec: 300, SBCompiled: 4, MeanCycles: 1_500_000}
		return d
	}
	if bad := GateBench(warmDoc(), warmDoc()); len(bad) != 0 {
		t.Fatalf("a warm record slower in wall clock but cheaper in cycles failed the gate: %v", bad)
	}

	base, cur := warmDoc(), warmDoc()
	cur.SessionLoadShared.MeanCycles = cur.SessionLoad.MeanCycles
	if bad := GateBench(base, cur); len(bad) != 1 || !strings.Contains(bad[0], "modeled cycles per session") {
		t.Fatalf("warm record no cheaper than cold not caught: %v", bad)
	}

	cur = warmDoc()
	cur.SessionLoadShared.SBCompiled = 4*16 + 1 // past the first-wave bound
	if bad := GateBench(base, cur); len(bad) != 1 || !strings.Contains(bad[0], "first-wave bound") {
		t.Fatalf("warm compiles past the first wave not caught: %v", bad)
	}

	cur = warmDoc()
	cur.SessionLoadShared = nil
	if bad := GateBench(base, cur); len(bad) != 1 || !strings.Contains(bad[0], "disappeared") {
		t.Fatalf("missing warm record not caught: %v", bad)
	}
}

// TestMedian pins the sample reduction behind a row's ns_per_step: one slow
// sample out of three does not move it.
func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{309, 1489, 300}, 309},
		{[]float64{5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
