// Package session turns the one-machine-per-process FPVM pipeline into a
// poolable unit of execution — the prerequisite for the paper's §7 vision of
// FPVM as a transparent service under real applications. A Session owns one
// simulated machine, one FPVM runtime with its shadow arena, and one
// telemetry collector; Run rebinds all of them to a new guest program and
// configuration, executes it, and harvests a self-contained Result. Every
// component resets by retaining its allocations (machine.Reset, VM.Reattach,
// Arena.Reset, telemetry.Collector.Reset), so a warm session's steady-state
// run allocates nothing of its own and — the central invariant, pinned by
// the bit-identity tests — behaves bit-identically to a fresh machine:
// registers, memory, output, stats, and modeled cycles all match.
//
// Sessions are strictly isolated from one another: each has its own memory
// image (zeroed between runs), its own NaN-box arena (keys never escape the
// session because the machine's memory and registers are reset with it), and
// its own telemetry rings — the per-shadow-context design NSan uses to keep
// concurrent diagnoses from contaminating each other. A Session itself is
// single-threaded; Pool provides the concurrency story.
package session

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sync/atomic"

	"fpvm/internal/fpvm"
	"fpvm/internal/machine"
	"fpvm/internal/sanitize"
	"fpvm/internal/telemetry"
)

// Config selects everything one run needs: the VM settings, the resource
// envelope, and the observability attachments. The zero value of every field
// except System is a sensible default.
type Config struct {
	// Config is the FPVM runtime configuration the session's VM is
	// reattached with; System is required. A sanitized run (Sanitize
	// non-nil) harvests its report into Result.Sanitize.
	fpvm.Config
	// MaxInst bounds the run's retired instructions. Exhausting the budget
	// is a degradation, not a kill: the run stops at an instruction
	// boundary, Result.BudgetExhausted is set, and everything executed so
	// far is harvested. 0 means DefaultMaxInst.
	MaxInst uint64
	// Cancel, when non-nil, is the cooperative-preemption flag: the machine
	// re-checks it every machine.DefaultPreemptEvery retired instructions
	// and, on observing it set, stops at that instruction boundary with
	// Result.DeadlineExceeded and everything retired so far harvested —
	// exactly the BudgetExhausted contract, driven by a deadline timer or a
	// canceled request context instead of an instruction count. The flag may
	// be shared read-only across concurrent sessions (one timer canceling a
	// whole load wave) or owned per run (one request's deadline).
	Cancel *atomic.Bool
	// MemSize is the machine's memory size in bytes (0 = the machine
	// default, 4 MiB). Modeled GC cycles scale with writable memory, so
	// results are only comparable across runs with equal geometry.
	MemSize int
	// NoPatch skips installing the image's §4.2 correctness sites. The
	// default mirrors the full pipeline, as the experiments harness does, and
	// requires an analyzed image (patch.NewImage).
	NoPatch bool
	// Telemetry attaches the session's collector to the run, enabling the
	// JSONL event trace and the per-PC site table. TopSites > 0 implies it.
	Telemetry bool
	// TopSites, when > 0, exports the N hottest trap sites into the Result.
	TopSites int
}

// DefaultMaxInst bounds a run whose Config.MaxInst is zero: high enough for
// every paper workload, low enough that a runaway guest cannot pin a pooled
// worker forever.
const DefaultMaxInst = 500_000_000

// Result is the harvest of one run: everything a caller (test, benchmark,
// or serving layer) needs, copied out of the session so it stays valid after
// the session is reset or returned to a pool.
type Result struct {
	// Output is the guest's hijacked stdout.
	Output string
	// Cycles is the modeled cycle count of the virtualized run.
	Cycles uint64
	// Instructions is the retired instruction count.
	Instructions uint64
	// Machine is a copy of the machine's counters. Stats is a plain value
	// (TrapByFlag is a fixed array), so the copy shares nothing with the
	// pooled machine.
	Machine machine.Stats
	// VM is a copy of the FPVM runtime's counters.
	VM fpvm.Stats
	// CorrectnessSites is the number of §4.2 correctness traps installed
	// from the image's site table (0 when Config.NoPatch).
	CorrectnessSites int
	// BudgetExhausted reports that the run was truncated by Config.MaxInst.
	// The rest of the Result still describes everything retired before the
	// budget ran out — quota pressure degrades a run, it never kills it.
	BudgetExhausted bool
	// DeadlineExceeded reports that the run was truncated by Config.Cancel
	// firing (deadline, canceled request). Same harvest contract as
	// BudgetExhausted: everything retired before the checkpoint is valid.
	DeadlineExceeded bool
	// Fault holds the machine fault that ended the run, "" for a clean halt
	// (or a budget truncation, which Fault does not cover). A faulted run
	// is still fully harvested.
	Fault string
	// TopSites is the per-PC hot-site ranking (Config.TopSites > 0).
	TopSites []telemetry.SiteRank
	// TraceJSONL is the drained telemetry event trace (Config.Telemetry),
	// one JSON object per line, ready to stream to a client.
	TraceJSONL []byte
	// Sanitize is the numerical sanitizer's report (Config.Sanitize); a
	// snapshot, valid after the session is pooled again.
	Sanitize *sanitize.Report
}

// PoisonedError reports that a panic escaped the emulation stack during a
// run. The panic was contained — the process survives, the caller gets this
// typed error — but the session that produced it is poisoned: the panic may
// have fired mid-emulation, leaving the machine, shadow arena, or NaN-box
// key sequence in a state no Reset contract covers. A poisoned session
// refuses further runs, and Pool.Put quarantines (destroys) it instead of
// pooling it, so its state can never leak into a later tenant's run.
type PoisonedError struct {
	// PanicValue is the recovered panic rendered as text.
	PanicValue string
	// Stack is the goroutine stack at the recovery point.
	Stack string
}

func (e *PoisonedError) Error() string {
	return fmt.Sprintf("session poisoned: panic during run: %s", e.PanicValue)
}

// errPoisonedReuse is returned by Run and Load on a session already poisoned — a
// defense-in-depth check; the pool never hands one out.
var errPoisonedReuse = errors.New("session: poisoned session cannot run again")

// Session is one poolable execution context. The zero value is not usable;
// call New.
type Session struct {
	m     *machine.Machine
	vm    *fpvm.VM
	telem *telemetry.Collector
	out   bytes.Buffer
	runs  uint64

	// poisoned latches after a contained panic; the session never runs again.
	poisoned bool
	// degradedStreak counts consecutive runs that needed the degradation
	// engine; the pool's health ledger quarantines chronically degrading
	// sessions (a possible slow corruption no single run proves).
	degradedStreak int
}

// New returns an empty session. The machine and VM are materialized lazily
// on the first Load, sized by its Config.
func New() *Session { return &Session{} }

// Runs reports how many runs this session has completed — >0 means Run is
// reusing retained allocations rather than making them.
func (s *Session) Runs() uint64 { return s.runs }

// Poisoned reports whether a panic escaped a run on this session. A poisoned
// session refuses further runs and must be destroyed, not pooled.
func (s *Session) Poisoned() bool { return s.poisoned }

// DegradedStreak reports how many consecutive completed runs engaged the
// degradation engine. The pool's health ledger uses it to quarantine
// chronically degrading sessions.
func (s *Session) DegradedStreak() int { return s.degradedStreak }

// Machine exposes the session's machine for post-run inspection (tests
// compare full architectural state against fresh runs), or the machine Load
// just checked out. The machine is only valid until the next Run, Load or
// pool checkout.
func (s *Session) Machine() *machine.Machine { return s.m }

// VM exposes the session's FPVM runtime under the same validity caveat.
func (s *Session) VM() *fpvm.VM { return s.vm }

// Run executes img under cfg on this session's pooled machine and harvests
// the result. The machine adopts the image by pointer — its predecoded
// stream, correctness-site table and published traces are built once per
// program and shared read-only — so switching programs costs no predecode and
// no analysis; the session is reset to fresh-machine state either way.
//
// Run never lets a panic from the emulation stack escape: a panic anywhere
// on the run path is recovered into a typed *PoisonedError and the session
// latches poisoned — it refuses further runs, and Pool.Put destroys it
// instead of pooling it. This is the fault-domain boundary: one guest's
// worst case costs one session, never the process.
func (s *Session) Run(img *machine.Image, cfg Config) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.poisoned = true
			res = Result{}
			err = &PoisonedError{
				PanicValue: fmt.Sprint(r),
				Stack:      string(debug.Stack()),
			}
		}
	}()
	return s.run(img, cfg)
}

// Load checks img out onto this session under cfg, ready to run, with the
// guest's stdout going to out; it is the one checkout every harness shares.
// It creates the machine over img or Resets it (same geometry either way),
// arms Cancel, installs the image's correctness sites unless NoPatch,
// attaches the telemetry collector if asked, and attaches or reattaches the
// VM. The order matters: a shared SBCache adopts only traces without a
// site, and a sanitizer binds the collector, both when the VM attaches.
// Afterwards Machine and VM are the loaded pair, on which a caller may set
// what Config does not carry (delivery model, patch mode) before running
// them. Load does not recover panics; Run does.
func (s *Session) Load(img *machine.Image, out io.Writer, cfg Config) error {
	if s.poisoned {
		return errPoisonedReuse
	}
	if cfg.System == nil {
		return errors.New("session: Config.System is required")
	}
	if img == nil {
		return errors.New("session: nil image")
	}
	if !cfg.NoPatch && !img.Analyzed() {
		return errors.New("session: image has no correctness-site table (build it with patch.NewImage, or set NoPatch)")
	}

	if s.m == nil {
		m, err := machine.NewFromImage(img, out, cfg.MemSize)
		if err != nil {
			return err
		}
		s.m = m
	} else if err := s.m.Reset(img, out, cfg.MemSize); err != nil {
		return err
	}
	// Reset cleared the previous tenant's flag, so an unarmed run carries no
	// stale deadline.
	if cfg.Cancel != nil {
		s.m.Preempt = cfg.Cancel
	}
	if !cfg.NoPatch {
		s.m.InstallSites()
	}
	if cfg.Telemetry || cfg.TopSites > 0 {
		if s.telem == nil {
			s.telem = telemetry.NewCollector(0)
		} else {
			s.telem.Reset()
		}
		s.m.Telem = s.telem
	}
	if s.vm == nil {
		s.vm = fpvm.Attach(s.m, cfg.Config)
	} else {
		s.vm.Reattach(s.m, cfg.Config)
	}
	return nil
}

// run is the unprotected run path: Load, run to halt, fault or budget, and
// harvest. Run wraps it in the panic containment.
func (s *Session) run(img *machine.Image, cfg Config) (Result, error) {
	s.out.Reset()
	if err := s.Load(img, &s.out, cfg); err != nil {
		return Result{}, err
	}
	maxInst := cfg.MaxInst
	if maxInst == 0 {
		maxInst = DefaultMaxInst
	}
	err := s.m.Run(maxInst)
	res := Result{
		Output:       s.out.String(),
		Cycles:       s.m.Cycles,
		Instructions: s.m.Stats.Instructions,
		Machine:      s.m.Stats,
		VM:           s.vm.Stats,
	}
	if !cfg.NoPatch {
		res.CorrectnessSites = img.SiteCount()
	}
	if err != nil {
		var be *machine.BudgetError
		var de *machine.DeadlineError
		switch {
		case errors.As(err, &be):
			res.BudgetExhausted = true
		case errors.As(err, &de):
			res.DeadlineExceeded = true
		default:
			res.Fault = err.Error()
		}
	}

	// Harvest the observability artifacts.
	if cfg.TopSites > 0 && s.telem != nil {
		res.TopSites = s.telem.TopSites(cfg.TopSites)
	}
	if cfg.Telemetry && s.telem != nil {
		var buf bytes.Buffer
		if werr := s.telem.WriteJSONL(&buf); werr == nil {
			res.TraceJSONL = buf.Bytes()
		}
	}
	if san := s.vm.Sanitizer(); san != nil {
		rep := san.Snapshot()
		res.Sanitize = &rep
	}

	// Health ledger input: a run that needed the degradation engine extends
	// the streak; a clean one clears it.
	if res.VM.Degradations > 0 {
		s.degradedStreak++
	} else {
		s.degradedStreak = 0
	}

	s.runs++
	return res, nil
}
