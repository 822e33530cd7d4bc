package experiments

import (
	"encoding/json"
	"fmt"
	"sync/atomic"

	"fpvm/internal/arith"
	"fpvm/internal/fpvm"
	"fpvm/internal/loadgen"
	"fpvm/internal/patch"
	"fpvm/internal/session"
	"fpvm/internal/telemetry"
	"fpvm/internal/workloads"
)

// BenchRow is the machine-readable per-workload record behind the
// fpvm-bench -json output: the modeled run sizes, trap and sequence
// counters, and allocator/GC statistics a dashboard or regression script
// needs, without scraping the figure tables.
type BenchRow struct {
	Workload  string `json:"workload"`
	Specifics string `json:"specifics,omitempty"`
	System    string `json:"system"`
	SeqLen    int    `json:"max_sequence_len"`
	JIT       int    `json:"jit_threshold"`

	NativeCycles uint64  `json:"native_cycles"`
	VirtCycles   uint64  `json:"virt_cycles"`
	Slowdown     float64 `json:"slowdown"`
	// NsPerStep is host wall-clock nanoseconds per retired instruction of
	// the virtualized run — the only machine-dependent number in the row.
	NsPerStep float64 `json:"ns_per_step"`

	Instructions uint64 `json:"instructions"`
	FPTraps      uint64 `json:"fp_traps"`
	CorrectTraps uint64 `json:"correctness_traps"`
	Emulated     uint64 `json:"emulated"`

	Sequences  uint64   `json:"sequences"`
	Coalesced  uint64   `json:"coalesced"`
	SeqLenHist []uint64 `json:"seq_len_hist,omitempty"`

	// Superblock (trace-JIT) counters, non-zero only on JIT > 0 rows.
	SBCompiled      uint64 `json:"sb_compiled,omitempty"`
	SBHits          uint64 `json:"sb_hits,omitempty"`
	SBInvalidations uint64 `json:"sb_invalidations,omitempty"`

	GCPasses       uint64 `json:"gc_passes"`
	GCFreed        uint64 `json:"gc_freed"`
	ArenaAllocs    uint64 `json:"arena_allocs"`
	ArenaHighWater int    `json:"arena_high_water"`
	ArenaReuses    uint64 `json:"arena_reuses"`

	// TopSites is the per-PC trap-site ranking (hits, attributed cycles,
	// coalesced-run shape, exception flags), present when the run was made
	// with Options.TopSites > 0 (fpvm-bench -topsites N).
	TopSites []telemetry.SiteRank `json:"top_sites,omitempty"`
}

// benchRow flattens one finished pair into a record. topSites bounds the
// exported per-PC site ranking (0 omits it).
func benchRow(w workloads.Workload, sys string, seqLen, jit, topSites int, r *RunResult) BenchRow {
	st := r.VM.Stats
	row := BenchRow{
		Workload:        w.Name,
		Specifics:       w.Specifics,
		System:          sys,
		SeqLen:          seqLen,
		JIT:             jit,
		SBCompiled:      r.Virt.Stats.SBCompiled,
		SBHits:          r.Virt.Stats.SBHits,
		SBInvalidations: r.Virt.Stats.SBInvalidations,
		NativeCycles:    r.NativeCycles,
		VirtCycles:      r.VirtCycles,
		Slowdown:        r.Slowdown(),
		Instructions:    r.Virt.Stats.Instructions,
		FPTraps:         st.Traps,
		CorrectTraps:    st.CorrectTraps,
		Emulated:        st.Emulated,
		Sequences:       st.Sequences,
		Coalesced:       st.Coalesced,
		GCPasses:        st.GC.Passes,
		GCFreed:         st.GC.TotalFreed,
		ArenaAllocs:     r.VM.Arena.Allocs(),
		ArenaHighWater:  r.VM.Arena.HighWater(),
		ArenaReuses:     r.VM.Arena.Reuses(),
	}
	if n := r.Virt.Stats.Instructions; n > 0 {
		row.NsPerStep = float64(r.VirtWallNs) / float64(n)
	}
	if seqLen > 0 {
		row.SeqLenHist = make([]uint64, fpvm.SeqLenBuckets)
		copy(row.SeqLenHist, st.SeqLenHist[:])
	}
	if r.Telem != nil && topSites > 0 {
		row.TopSites = r.Telem.TopSites(topSites)
	}
	return row
}

// BenchJSONData runs every benchmark under FPVM+MPFR with sequence emulation
// off, then — when o.VM.MaxSequenceLen > 0 — again with it on, then — when
// o.VM.JITThreshold > 0 — once more with the trace-JIT superblock tier stacked
// on top, returning one record per run so the set forms a machine-readable
// ablation ladder.
func BenchJSONData(o Options) ([]BenchRow, error) {
	o.defaults()
	base := o
	base.VM.MaxSequenceLen = 0
	base.VM.JITThreshold = 0
	seqOnly := o
	seqOnly.VM.JITThreshold = 0
	cells, err := forEachCell(o.Workers, allFig12(o), func(_ int, w workloads.Workload) ([]BenchRow, error) {
		sys := arith.NewMPFR(o.Prec)
		r, err := runPair(w, sys, base)
		if err != nil {
			return nil, err
		}
		rows := []BenchRow{benchRow(w, sys.Name(), 0, 0, o.TopSites, r)}
		if o.VM.MaxSequenceLen > 0 {
			sr, err := runPair(w, arith.NewMPFR(o.Prec), seqOnly)
			if err != nil {
				return nil, err
			}
			rows = append(rows, benchRow(w, sys.Name(), o.VM.MaxSequenceLen, 0, o.TopSites, sr))
		}
		if o.VM.JITThreshold > 0 {
			jr, err := runPair(w, arith.NewMPFR(o.Prec), o)
			if err != nil {
				return nil, err
			}
			rows = append(rows, benchRow(w, sys.Name(), o.VM.MaxSequenceLen, o.VM.JITThreshold, o.TopSites, jr))
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []BenchRow
	for _, c := range cells {
		rows = append(rows, c...)
	}
	return rows, nil
}

// BenchOptions is the comparability key of a bench document: two documents
// produced under different options measure different configurations, and the
// regression gate refuses to compare them.
type BenchOptions struct {
	Prec   uint `json:"prec"`
	Quick  bool `json:"quick"`
	SeqLen int  `json:"max_sequence_len"`
	JIT    int  `json:"jit_threshold"`
}

// SessionLoad is the pooled-session throughput record attached to a bench
// document when Options.Sessions > 0: N runs of one workload through a
// shared session.Pool from concurrent workers. PerSec/P50/P99 are host
// wall-clock figures; Errors and fresh-construction counts are exact.
type SessionLoad struct {
	Workload string  `json:"workload"`
	System   string  `json:"system"`
	Sessions int     `json:"sessions"`
	Workers  int     `json:"workers"`
	PerSec   float64 `json:"sessions_per_sec"`
	P50Ns    int64   `json:"p50_ns"`
	P99Ns    int64   `json:"p99_ns"`
	Errors   int     `json:"errors"`
	Fresh    uint64  `json:"fresh_sessions"` // pool misses (constructions)
	// Quarantined counts sessions the pool destroyed instead of re-pooling
	// (poisoned or chronically degrading). On every session-load record this
	// must be zero: no fault injection is armed, so a non-zero count means
	// the health ledger is misfiring under clean load.
	Quarantined uint64 `json:"quarantined"`
	// SBCompiled sums superblock compiles across all runs. On the shared
	// warm-cache record this stays at the program's distinct-entry count
	// (only the first checkout compiles); on the cold record it scales with
	// Sessions.
	SBCompiled uint64 `json:"sb_compiled,omitempty"`
}

// BenchDoc is the canonical machine-readable benchmark record (the checked-in
// BENCH_N.json files): the options that produced it, one row per
// workload/configuration, and the optional session-load record.
type BenchDoc struct {
	Schema      int          `json:"schema"`
	Options     BenchOptions `json:"options"`
	Rows        []BenchRow   `json:"rows"`
	SessionLoad *SessionLoad `json:"session_load,omitempty"`
	// SessionLoadShared repeats the session-load run with a shared warm
	// superblock cache attached to the pool config (Options.VM.JITThreshold > 0
	// only): same workload, geometry, and concurrency, but only the first
	// checkout compiles traces — the warm-pool column of the record.
	SessionLoadShared *SessionLoad `json:"session_load_shared,omitempty"`
	// SessionLoadShed repeats the session-load run with the serving stack's
	// resilience machinery armed the way fpvm-serve arms it per request: a
	// cooperative-preemption flag on every run (armed but never fired, so
	// deadline checkpoints are taken at full rate) over the pool's always-on
	// quarantine ledger. The record prices the robustness layer under clean
	// load — the gate holds it to zero errors, zero quarantines, and
	// throughput comparable to the unarmed record.
	SessionLoadShed *SessionLoad `json:"session_load_shed,omitempty"`
}

// BenchDocData assembles the full bench document: the per-workload rows and,
// when o.Sessions > 0, the session-load record.
func BenchDocData(o Options) (*BenchDoc, error) {
	o.defaults()
	rows, err := BenchJSONData(o)
	if err != nil {
		return nil, err
	}
	doc := &BenchDoc{
		Schema: 1,
		Options: BenchOptions{
			Prec:   o.Prec,
			Quick:  o.Quick,
			SeqLen: o.VM.MaxSequenceLen,
			JIT:    o.VM.JITThreshold,
		},
		Rows: rows,
	}
	if o.Sessions > 0 {
		sl, err := sessionLoadRecord(o, false, false)
		if err != nil {
			return nil, err
		}
		doc.SessionLoad = sl
		if o.VM.JITThreshold > 0 {
			warm, err := sessionLoadRecord(o, true, false)
			if err != nil {
				return nil, err
			}
			doc.SessionLoadShared = warm
		}
		shed, err := sessionLoadRecord(o, false, true)
		if err != nil {
			return nil, err
		}
		doc.SessionLoadShed = shed
	}
	return doc, nil
}

// sessionLoadWorkload is the target the session-load record drives: a real
// Figure-12 workload that traps heavily enough to exercise the arena, GC,
// and patch path on every run.
const sessionLoadWorkload = "FBench/"

// sessionLoadMemSize keeps pooled guests small (the GC scan cost and the
// pool's memory ceiling both scale with guest memory). Recorded runs are
// only comparable to other session-load records, which share this geometry.
const sessionLoadMemSize = 256 << 10

// sessionLoadJIT pins the session-load records' JIT threshold (when the
// bench runs with the tier armed). The records deliberately run WITHOUT
// sequence emulation and at an aggressive threshold: coalescing hides most
// deliveries behind one trap, leaving almost no sites hot enough to compile,
// which would make the warm-cache ablation unmeasurable. At threshold 2
// every trap site compiles within a run, so the cold record pays the full
// warm-up + compile bill per checkout and the shared-cache record's zero
// compiles are a wall-clock difference, not a rounding error. Cold and warm
// records always share this exact configuration.
const sessionLoadJIT = 2

// sessionLoadRecord measures pooled-session throughput. With shared set it
// attaches a fresh shared superblock cache so every checkout after the first
// adopts the published traces instead of re-warming and recompiling them.
// With shed set it arms the resilience seams the serving stack arms per
// request — a cooperative-preemption flag that never fires, over the pool's
// quarantine ledger — so the record prices deadline checkpoints under clean
// load (the unfired-flag contract says they must be free).
func sessionLoadRecord(o Options, shared, shed bool) (*SessionLoad, error) {
	w, ok := workloads.Get(sessionLoadWorkload)
	if !ok {
		return nil, fmt.Errorf("session load: unknown workload %q", sessionLoadWorkload)
	}
	prog, err := w.Build()
	if err != nil {
		return nil, err
	}
	img, err := patch.NewImage(prog)
	if err != nil {
		return nil, err
	}
	// Vanilla still trap-and-emulates every FP instruction (boxing, arena,
	// GC, patching all engaged) but adds no arithmetic cost of its own, so
	// the record measures the session machinery rather than MPFR.
	sys := arith.Vanilla{}
	cfg := session.Config{
		Config:  fpvm.Config{System: sys, GCEveryNAllocs: o.VM.GCEveryNAllocs},
		MemSize: sessionLoadMemSize,
	}
	if o.VM.JITThreshold > 0 {
		cfg.JITThreshold = sessionLoadJIT // see the constant: no seqemu, threshold 2
	}
	if shared {
		cfg.SBCache = fpvm.NewSBCache()
	}
	if shed {
		// Armed but never fired: one flag shared read-only across every
		// concurrent run, exactly how fpvm-serve wires a request deadline.
		cfg.Cancel = new(atomic.Bool)
	}
	var pool session.Pool
	rep := loadgen.Run(&pool, img, cfg, loadgen.Options{
		Sessions: o.Sessions,
		Workers:  o.LoadWorkers,
	})
	return &SessionLoad{
		Workload:    sessionLoadWorkload,
		System:      sys.Name(),
		Sessions:    rep.Sessions,
		Workers:     rep.Workers,
		PerSec:      rep.PerSec,
		P50Ns:       rep.P50.Nanoseconds(),
		P99Ns:       rep.P99.Nanoseconds(),
		Errors:      rep.Errors,
		Fresh:       rep.Pool.News,
		Quarantined: rep.Pool.Quarantined,
		SBCompiled:  rep.SBCompiled,
	}, nil
}

// BenchJSON writes the full bench document to o.W as indented JSON.
func BenchJSON(o Options) error {
	doc, err := BenchDocData(o)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(o.W)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
