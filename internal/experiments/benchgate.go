package experiments

import (
	"encoding/json"
	"fmt"
	"os"
)

// Gate tolerances. The modeled numbers (cycles, traps) are deterministic
// functions of the program and configuration, so the tolerance only absorbs
// float formatting; wall-clock ns-per-step is machine- and load-dependent
// (a row's value is the median of benchSamples runs), so its gate is a
// coarse tripwire for catastrophic slowdowns, not a precision instrument.
const (
	gateCycleSlack  = 1.01 // modeled cycles may grow at most 1%
	gateTrapSlack   = 1.01 // trap counts may grow at most 1%
	gateWallSlack   = 4.0  // ns-per-step may grow at most 4×
	gateWallFloorNs = 50.0 // rows faster than this per step are below noise
	gateSBHitSlack  = 0.99 // superblock hits may shrink at most 1%

	// gateLorenzJITMax is the ISSUE-7 acceptance bar, checked absolutely
	// (not against the baseline): the Lorenz attractor's modeled slowdown
	// with the trace-JIT tier on must stay under 5× native.
	gateLorenzJITMax   = 5.0
	gateLorenzWorkload = "Lorenz Attractor"

	// gateShedFloor is the resilience-overhead bar, checked within the
	// current document: the session-load record with deadline checkpoints
	// armed (never fired) must hold at least this fraction of the unarmed
	// record's sessions/sec. The unfired-flag contract says checkpoints are
	// modeled-cycle free; this bounds their wall-clock cost too, with slack
	// for host scheduling noise.
	gateShedFloor = 0.5
)

// ReadBenchDoc loads a checked-in BENCH_N.json document.
func ReadBenchDoc(path string) (*BenchDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc BenchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema == 0 || len(doc.Rows) == 0 {
		return nil, fmt.Errorf("%s: not a bench document (schema %d, %d rows)", path, doc.Schema, len(doc.Rows))
	}
	return &doc, nil
}

// benchKey identifies a row across documents.
type benchKey struct {
	Workload  string
	Specifics string
	System    string
	SeqLen    int
	JIT       int
}

// GateBench compares a freshly produced bench document against a baseline
// and returns one message per regression (empty = pass). Regressions are
// one-sided: only the new document being worse fails; improvements pass and
// become the new baseline when the document is checked in.
func GateBench(base, cur *BenchDoc) []string {
	var bad []string
	if base.Options != cur.Options {
		return []string{fmt.Sprintf(
			"options mismatch: baseline %+v vs current %+v — documents are not comparable",
			base.Options, cur.Options)}
	}
	curRows := make(map[benchKey]BenchRow, len(cur.Rows))
	for _, r := range cur.Rows {
		curRows[benchKey{r.Workload, r.Specifics, r.System, r.SeqLen, r.JIT}] = r
		// The Lorenz bar is absolute: it binds even when the baseline
		// itself was produced before the JIT tier existed.
		if r.JIT > 0 && r.Workload == gateLorenzWorkload && r.Slowdown >= gateLorenzJITMax {
			bad = append(bad, fmt.Sprintf("%s [%s seq=%d jit=%d]: slowdown %.2fx breaches the <%.0fx JIT bar",
				r.Workload, r.System, r.SeqLen, r.JIT, r.Slowdown, gateLorenzJITMax))
		}
	}
	for _, old := range base.Rows {
		key := benchKey{old.Workload, old.Specifics, old.System, old.SeqLen, old.JIT}
		now, ok := curRows[key]
		if !ok {
			bad = append(bad, fmt.Sprintf("%v: row disappeared from the bench", key))
			continue
		}
		if float64(now.VirtCycles) > float64(old.VirtCycles)*gateCycleSlack {
			bad = append(bad, fmt.Sprintf("%s %s [%s seq=%d]: virt cycles %d -> %d (>%.0f%% regression)",
				old.Workload, old.Specifics, old.System, old.SeqLen,
				old.VirtCycles, now.VirtCycles, (gateCycleSlack-1)*100))
		}
		if float64(now.FPTraps) > float64(old.FPTraps)*gateTrapSlack {
			bad = append(bad, fmt.Sprintf("%s %s [%s seq=%d]: fp traps %d -> %d (>%.0f%% regression)",
				old.Workload, old.Specifics, old.System, old.SeqLen,
				old.FPTraps, now.FPTraps, (gateTrapSlack-1)*100))
		}
		if old.NsPerStep > gateWallFloorNs && now.NsPerStep > old.NsPerStep*gateWallSlack {
			bad = append(bad, fmt.Sprintf("%s %s [%s seq=%d]: ns/step %.0f -> %.0f (>%.0fx wall-clock regression)",
				old.Workload, old.Specifics, old.System, old.SeqLen,
				old.NsPerStep, now.NsPerStep, gateWallSlack))
		}
		// Superblock hit-rate gate: on JIT rows, the zero-delivery entries
		// served must not shrink (deliveries creeping back in means the
		// cache is being missed more than the baseline).
		if old.JIT > 0 && float64(now.SBHits) < float64(old.SBHits)*gateSBHitSlack {
			bad = append(bad, fmt.Sprintf("%s %s [%s seq=%d jit=%d]: superblock hits %d -> %d (>%.0f%% regression)",
				old.Workload, old.Specifics, old.System, old.SeqLen, old.JIT,
				old.SBHits, now.SBHits, (1-gateSBHitSlack)*100))
		}
	}
	if base.SessionLoad != nil {
		switch {
		case cur.SessionLoad == nil:
			bad = append(bad, "session-load record disappeared from the bench")
		case cur.SessionLoad.Errors > 0:
			bad = append(bad, fmt.Sprintf("session load: %d of %d sessions failed",
				cur.SessionLoad.Errors, cur.SessionLoad.Sessions))
		case cur.SessionLoad.Sessions < base.SessionLoad.Sessions:
			bad = append(bad, fmt.Sprintf("session load shrank: %d -> %d sessions",
				base.SessionLoad.Sessions, cur.SessionLoad.Sessions))
		}
	}
	// Warm-pool bar, within-document: the shared-cache record must prove the
	// cache is doing its job — near-zero compiles after the first checkout
	// and fewer modeled cycles per session than the cold pool. Both are
	// deterministic in outcome: a warm checkout skips the warm-up traces and
	// the compiles, whatever the host's speed.
	if cur.SessionLoadShared != nil && cur.SessionLoad != nil {
		warm, cold := cur.SessionLoadShared, cur.SessionLoad
		if warm.Errors > 0 {
			bad = append(bad, fmt.Sprintf("warm session load: %d of %d sessions failed",
				warm.Errors, warm.Sessions))
		}
		// Warm checkouts must compile ~nothing: at worst the first concurrent
		// wave (one checkout per worker) races ahead of publication, so the
		// total is bounded by that wave's compiles, not by session count.
		if cold.Sessions > 0 && cold.SBCompiled > 0 {
			perSession := cold.SBCompiled / uint64(cold.Sessions)
			if limit := perSession * uint64(warm.Workers); warm.SBCompiled > limit {
				bad = append(bad, fmt.Sprintf(
					"warm pool compiled %d superblocks over %d sessions (first-wave bound %d; cold pool: %d) — the shared cache is not absorbing compiles",
					warm.SBCompiled, warm.Sessions, limit, cold.SBCompiled))
			}
		}
		if warm.MeanCycles >= cold.MeanCycles {
			bad = append(bad, fmt.Sprintf(
				"warm pool %.0f modeled cycles per session is not below the cold pool's %.0f",
				warm.MeanCycles, cold.MeanCycles))
		}
	} else if base.SessionLoadShared != nil && cur.SessionLoadShared == nil {
		bad = append(bad, "warm session-load record disappeared from the bench")
	}
	// Shed bar, within-document: armed-but-unfired deadline checkpoints over
	// the quarantine ledger must be clean (no errors, no quarantines under
	// fault-free load) and close to free in wall clock.
	if shed := cur.SessionLoadShed; shed != nil {
		if shed.Errors > 0 {
			bad = append(bad, fmt.Sprintf("shed session load: %d of %d sessions failed",
				shed.Errors, shed.Sessions))
		}
		if shed.Quarantined > 0 {
			bad = append(bad, fmt.Sprintf(
				"shed session load quarantined %d sessions under fault-free load — the health ledger is misfiring",
				shed.Quarantined))
		}
		if cold := cur.SessionLoad; cold != nil && shed.PerSec < cold.PerSec*gateShedFloor {
			bad = append(bad, fmt.Sprintf(
				"armed deadline checkpoints cost too much: %.0f sessions/sec vs %.0f unarmed (<%.0f%% floor)",
				shed.PerSec, cold.PerSec, gateShedFloor*100))
		}
	} else if base.SessionLoadShed != nil {
		bad = append(bad, "shed session-load record disappeared from the bench")
	}
	return bad
}
