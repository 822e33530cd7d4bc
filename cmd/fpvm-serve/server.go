package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fpvm/internal/arith"
	"fpvm/internal/asm"
	"fpvm/internal/faultinject"
	"fpvm/internal/fpvm"
	"fpvm/internal/isa"
	"fpvm/internal/machine"
	"fpvm/internal/oracle"
	"fpvm/internal/sanitize"
	"fpvm/internal/session"
	"fpvm/internal/telemetry"
)

// serverConfig is the operator-controlled envelope every request runs
// inside. Request parameters can only narrow it, never widen it: an over-ask
// is clamped and the run degrades (truncates, demotes, goes native) rather
// than being rejected or killed.
type serverConfig struct {
	// Workers bounds the number of simultaneously executing sessions; excess
	// requests queue on the semaphore (or abandon it when the client goes
	// away). This is also the ceiling on live guest memory: Workers × MemSize.
	Workers int
	// MaxInst is the per-request instruction quota ceiling.
	MaxInst uint64
	// TenantQuota is the per-tenant instruction quota ceiling, defaulting to
	// MaxInst. A tenant whose requests ask for more is granted exactly this
	// much and the run reports budget_exhausted instead of failing.
	TenantQuota uint64
	// MemSize is the per-session guest memory size in bytes.
	MemSize int
	// VM is the FPVM configuration every run starts from: the operator sets
	// the arena caps (the hard cap trips the degradation engine — native
	// re-execution — never an error). Each request then sets System,
	// MaxSequenceLen, JITThreshold, Sanitize and Inject, and the server
	// attaches its shared superblock cache.
	VM fpvm.Config
	// MaxRunTime caps each run's wall-clock execution (0 = no cap). The cap
	// is enforced cooperatively: the machine checks a cancel flag at
	// instruction-boundary checkpoints, so an expired run is truncated and
	// harvested exactly like a budget exhaustion — HTTP 200 with
	// deadline_exceeded, never a kill. A request's timeout_ms can only
	// narrow this, never widen it.
	MaxRunTime time.Duration
	// MaxQueue bounds the number of requests waiting for a worker slot.
	// Above it, new requests are shed immediately with 429 + Retry-After
	// instead of piling onto the semaphore (0 = 4×Workers).
	MaxQueue int
	// QueueTimeout bounds how long an admitted request waits for a slot
	// before being shed with 429 (0 = 5s).
	QueueTimeout time.Duration
	// BreakerFaults is the per-tenant circuit-breaker threshold: this many
	// faults (contained panics, server-cap deadline blowouts) inside
	// BreakerWindow open the tenant's breaker, fast-failing its requests
	// with 503 for BreakerCooldown without touching other tenants.
	// 0 = 5 faults over 30s with a 10s cooldown.
	BreakerFaults   int
	BreakerWindow   time.Duration
	BreakerCooldown time.Duration
	// AllowFaults honors the request-level "faults" injection spec — the
	// chaos-load harness's hook. Off by default: injection is an operator
	// decision, never a tenant's.
	AllowFaults bool
}

func (c serverConfig) withDefaults() serverConfig {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.MaxInst == 0 {
		c.MaxInst = session.DefaultMaxInst
	}
	if c.TenantQuota == 0 || c.TenantQuota > c.MaxInst {
		c.TenantQuota = c.MaxInst
	}
	if c.MemSize <= 0 {
		c.MemSize = 1 << 20 // 1 MiB: every bundled target fits comfortably
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.Workers
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 5 * time.Second
	}
	if c.BreakerFaults <= 0 {
		c.BreakerFaults = 5
	}
	if c.BreakerWindow <= 0 {
		c.BreakerWindow = 30 * time.Second
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 10 * time.Second
	}
	return c
}

// breaker is a per-tenant sliding-window circuit breaker. Faults (contained
// panics, server-cap deadline blowouts) are recorded with timestamps; when
// the window holds the configured threshold the breaker opens and the
// tenant's requests fast-fail with 503 until the cooldown elapses — without
// a session checkout, so a hostile tenant stops costing workers.
type breaker struct {
	mu        sync.Mutex
	faults    []time.Time
	openUntil time.Time
	trips     uint64
}

// allow reports whether the tenant may proceed; when the breaker is open it
// returns the remaining cooldown for Retry-After.
func (b *breaker) allow(now time.Time) (bool, time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if now.Before(b.openUntil) {
		return false, b.openUntil.Sub(now)
	}
	return true, 0
}

// record notes one fault and opens the breaker if the sliding window filled.
func (b *breaker) record(now time.Time, threshold int, window, cooldown time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	keep := b.faults[:0]
	for _, t := range b.faults {
		if now.Sub(t) < window {
			keep = append(keep, t)
		}
	}
	b.faults = append(keep, now)
	if len(b.faults) >= threshold {
		b.openUntil = now.Add(cooldown)
		b.trips++
		b.faults = b.faults[:0]
	}
}

// snapshot reads the breaker for /stats.
func (b *breaker) snapshot(now time.Time) (open bool, trips uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return now.Before(b.openUntil), b.trips
}

// tenantState is the accounting row behind per-tenant quota decisions.
type tenantState struct {
	requests     atomic.Uint64
	instructions atomic.Uint64
	budgetHits   atomic.Uint64 // runs truncated by the quota
	deadlineHits atomic.Uint64 // runs truncated by a wall-clock deadline
	poisons      atomic.Uint64 // runs that poisoned their session (contained panic)
	rejected     atomic.Uint64 // requests fast-failed by the open breaker
	sbCompiled   atomic.Uint64 // superblocks this tenant's runs compiled
	sbHits       atomic.Uint64 // superblock entries this tenant's runs served
	sanitizeRuns atomic.Uint64 // runs with the sanitizer armed
	certifyRuns  atomic.Uint64 // runs with interval certification armed

	breaker breaker
}

// server is the multi-tenant execution service: a session pool, a bounded
// worker semaphore, a program image cache, and per-tenant accounting.
type server struct {
	cfg  serverConfig
	pool session.Pool
	sem  chan struct{} // bounded worker pool: one token per running session
	// images holds one analyzed image per program content — bundled targets
	// keyed by name, inline asm by the SHA-256 of its source — shared by
	// every request for it.
	images session.ImageCache

	// sbcache is the server-wide warm superblock cache: every request that
	// arms the trace-JIT tier shares compiled traces with every other tenant
	// running the same program. The traces are a pure function of the
	// immutable program text, so only the first session per image pays the
	// warm-up and compile; per-tenant state (blacklists, patches) stays
	// private.
	sbcache *fpvm.SBCache

	mu      sync.Mutex
	tenants map[string]*tenantState

	requests   atomic.Uint64
	errors     atomic.Uint64
	degraded   atomic.Uint64 // runs that hit a quota or degradation path
	sbCompiled atomic.Uint64
	sbHits     atomic.Uint64

	// Overload and resilience accounting.
	queued       atomic.Int64  // requests currently waiting for a worker slot
	shed         atomic.Uint64 // requests refused with 429 (queue full or wait timed out)
	breakerFails atomic.Uint64 // requests fast-failed 503 by an open breaker
	breakerTrips atomic.Uint64 // breaker open events across all tenants
	deadlineHits atomic.Uint64 // runs truncated by a wall-clock deadline
	poisons      atomic.Uint64 // contained run panics (sessions quarantined)

	sanitizeRuns    atomic.Uint64 // runs with the sanitizer armed
	sanitizeFlagged atomic.Uint64 // sanitized runs that flagged at least one site
	certifyRuns     atomic.Uint64 // runs with certification armed
	certifyFailed   atomic.Uint64 // certification runs whose verdict was FAIL
}

func newServer(cfg serverConfig) *server {
	cfg = cfg.withDefaults()
	return &server{
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.Workers),
		sbcache: fpvm.NewSBCache(),
		tenants: make(map[string]*tenantState),
	}
}

// handler returns the service's route table.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", s.handleRun)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/stats", s.handleStats)
	return mux
}

// runRequest is the POST /run body: which program, which arithmetic system,
// and how much observability. All resource asks are clamped to the server
// envelope.
type runRequest struct {
	// Workload names a bundled target (oracle.Lookup spelling, with or
	// without the workload:/example: prefix). Mutually exclusive with Asm.
	Workload string `json:"workload,omitempty"`
	// Asm is assembly source to assemble and run.
	Asm string `json:"asm,omitempty"`
	// Arith selects the arithmetic system (default vanilla).
	Arith string `json:"arith,omitempty"`
	// Prec is the MPFR precision in bits (default 200).
	Prec uint `json:"prec,omitempty"`
	// MaxInst asks for an instruction budget; it is clamped to the tenant
	// quota.
	MaxInst uint64 `json:"max_inst,omitempty"`
	// NoPatch skips static analysis and correctness patching.
	NoPatch bool `json:"no_patch,omitempty"`
	// SeqLen enables sequence emulation with the given max run length.
	SeqLen int `json:"seqlen,omitempty"`
	// JITThreshold enables the trace-JIT superblock tier: sites delivered
	// more than this many times compile into cached superblocks (0 = off).
	JITThreshold int `json:"jitthreshold,omitempty"`
	// Trace returns the telemetry event stream as JSONL in the response.
	Trace bool `json:"trace,omitempty"`
	// TopSites returns the N hottest trap sites.
	TopSites int `json:"topsites,omitempty"`
	// Sanitize arms the numerical sanitizer for this run; the response then
	// carries the ranked cancellation/error report. Architectural results are
	// bit-identical with or without it.
	Sanitize bool `json:"sanitize,omitempty"`
	// SanitizeThreshold is the lost-bits flagging threshold (0 = default).
	SanitizeThreshold float64 `json:"sanitize_threshold,omitempty"`
	// Certify additionally records an interval enclosure per guest output and
	// reports whether every native output is proved contained (implies
	// Sanitize).
	Certify bool `json:"certify,omitempty"`
	// TimeoutMS asks for a wall-clock deadline in milliseconds. It is capped
	// by the server's -max-run-time; an expired run is truncated at an
	// instruction boundary and harvested (HTTP 200, deadline_exceeded:true),
	// never killed.
	TimeoutMS uint64 `json:"timeout_ms,omitempty"`
	// Faults is a faultinject spec (fpvm-run -faults syntax) armed on this
	// run. Honored only when the server runs with -allow-faults — the
	// chaos-load harness's hook; ordinary deployments reject it.
	Faults string `json:"faults,omitempty"`
	// Tenant is the accounting identity (default "anonymous"); the
	// X-FPVM-Tenant header takes precedence.
	Tenant string `json:"tenant,omitempty"`
}

// runResponse is the harvested result of one session run.
type runResponse struct {
	Output           string               `json:"output"`
	Cycles           uint64               `json:"cycles"`
	Instructions     uint64               `json:"instructions"`
	FPTraps          uint64               `json:"fp_traps"`
	CorrectnessTraps uint64               `json:"correctness_traps"`
	Emulated         uint64               `json:"emulated"`
	Degradations     uint64               `json:"degradations"`
	SBCompiled       uint64               `json:"sb_compiled,omitempty"`
	SBHits           uint64               `json:"sb_hits,omitempty"`
	BudgetGranted    uint64               `json:"budget_granted"`
	BudgetExhausted  bool                 `json:"budget_exhausted"`
	DeadlineExceeded bool                 `json:"deadline_exceeded,omitempty"`
	Fault            string               `json:"fault,omitempty"`
	SessionRuns      uint64               `json:"session_runs"`
	Tenant           string               `json:"tenant"`
	TopSites         []telemetry.SiteRank `json:"top_sites,omitempty"`
	TraceJSONL       string               `json:"trace_jsonl,omitempty"`
	Sanitize         *sanitizeSummary     `json:"sanitize,omitempty"`
}

// sanitizeSummary is the JSON-safe projection of a sanitize.Report: lost-bits
// figures are always finite (clamped to [0, 53]) but enclosure widths can be
// Inf or NaN, which encoding/json rejects — so widths travel as %g strings.
type sanitizeSummary struct {
	Primary       string          `json:"primary"`
	Prec          uint            `json:"prec"`
	ThresholdBits float64         `json:"threshold_bits"`
	Samples       uint64          `json:"samples"`
	Sites         int             `json:"sites"`
	FlaggedSites  int             `json:"flagged_sites"`
	Truncated     bool            `json:"truncated,omitempty"`
	TopSites      []sanitizeSite  `json:"top_sites,omitempty"`
	Certify       *certifySummary `json:"certify,omitempty"`
}

type sanitizeSite struct {
	PC            string  `json:"pc"`
	Op            string  `json:"op"`
	Samples       uint64  `json:"samples"`
	MaxLostBits   float64 `json:"max_lost_bits"`
	MeanLostBits  float64 `json:"mean_lost_bits"`
	Cancellations uint64  `json:"cancellations,omitempty"`
	MaxCancelBits int     `json:"max_cancel_bits,omitempty"`
	Depth         int     `json:"depth,omitempty"`
	MaxWidth      string  `json:"max_width,omitempty"`
	Flagged       bool    `json:"flagged,omitempty"`
}

type certifySummary struct {
	Pass          bool   `json:"pass"`
	Outputs       int    `json:"outputs"`
	Proved        int    `json:"proved"`
	Indeterminate int    `json:"indeterminate"`
	Violated      int    `json:"violated"`
	Dropped       uint64 `json:"dropped,omitempty"`
	MaxWidth      string `json:"max_width,omitempty"`
}

// maxSanitizeSites caps the per-response site ranking; the full report stays
// available to CLI users via fpvm-run -sanitize.
const maxSanitizeSites = 16

func summarizeSanitize(r *sanitize.Report) *sanitizeSummary {
	sum := &sanitizeSummary{
		Primary:       r.Primary,
		Prec:          r.Prec,
		ThresholdBits: r.ThresholdBits,
		Samples:       r.Samples,
		Sites:         len(r.Sites),
		FlaggedSites:  r.FlaggedSites,
		Truncated:     r.Truncated,
	}
	for i, s := range r.Sites {
		if i >= maxSanitizeSites {
			break
		}
		site := sanitizeSite{
			PC:            fmt.Sprintf("%#x", s.PC),
			Op:            s.Op,
			Samples:       s.Samples,
			MaxLostBits:   s.MaxLostBits,
			MeanLostBits:  s.MeanLostBits,
			Cancellations: s.Cancellations,
			MaxCancelBits: s.MaxCancelBits,
			Depth:         s.Depth,
			Flagged:       s.Flagged,
		}
		if s.MaxWidth != 0 {
			site.MaxWidth = fmt.Sprintf("%g", s.MaxWidth)
		}
		sum.TopSites = append(sum.TopSites, site)
	}
	if c := r.Certification; c != nil {
		cs := &certifySummary{
			Pass:          c.Pass(),
			Outputs:       len(c.Outputs),
			Proved:        c.Proved,
			Indeterminate: c.Indeterminate,
			Violated:      c.Violated,
			Dropped:       c.Dropped,
		}
		if c.MaxWidth != 0 {
			cs.MaxWidth = fmt.Sprintf("%g", c.MaxWidth)
		}
		sum.Certify = cs
	}
	return sum
}

// maxRunBody bounds a POST /run body. The largest legitimate body is an
// inline asm program, which is kilobytes; a larger body is refused with 413
// before it is decoded.
const maxRunBody = 1 << 20

func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req runRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRunBody)).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxRunBody)
			return
		}
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	tenant := r.Header.Get("X-FPVM-Tenant")
	if tenant == "" {
		tenant = req.Tenant
	}
	if tenant == "" {
		tenant = "anonymous"
	}

	key, build, err := s.program(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Arith == "" {
		req.Arith = "vanilla"
	}
	prec := req.Prec
	if prec == 0 {
		prec = 200
	}
	sys, err := arith.Select(req.Arith, prec)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Circuit breaker: a tenant whose recent runs keep poisoning sessions or
	// blowing the server deadline cap fast-fails here — no queue slot, no
	// session checkout — until its cooldown elapses. Other tenants are
	// untouched.
	ts := s.tenant(tenant)
	if ok, wait := ts.breaker.allow(time.Now()); !ok {
		ts.rejected.Add(1)
		s.breakerFails.Add(1)
		w.Header().Set("Retry-After", retryAfter(wait))
		httpError(w, http.StatusServiceUnavailable,
			"tenant %q circuit breaker open (repeated faults); retry after %s", tenant, wait.Round(time.Millisecond))
		return
	}

	// Quota: grant min(ask, tenant quota). The clamp is the degrade path —
	// the run executes under the granted budget and reports truncation
	// instead of being refused.
	granted := req.MaxInst
	if granted == 0 || granted > s.cfg.TenantQuota {
		granted = s.cfg.TenantQuota
	}
	cfg := session.Config{
		Config:    s.cfg.VM,
		MaxInst:   granted,
		MemSize:   s.cfg.MemSize,
		NoPatch:   req.NoPatch,
		Telemetry: req.Trace,
		TopSites:  req.TopSites,
	}
	cfg.System = sys
	cfg.MaxSequenceLen = req.SeqLen
	cfg.JITThreshold = req.JITThreshold
	cfg.SBCache = s.sbcache
	if req.Sanitize || req.Certify {
		cfg.Sanitize = &sanitize.Options{ThresholdBits: req.SanitizeThreshold, Certify: req.Certify}
	}
	// Fault injection is an operator decision: the request-level spec is the
	// chaos-load harness's hook and is rejected unless the server opted in.
	if req.Faults != "" {
		if !s.cfg.AllowFaults {
			httpError(w, http.StatusForbidden, "fault injection disabled (server not started with -allow-faults)")
			return
		}
		icfg, err := faultinject.ParseSpec(req.Faults)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		cfg.Inject = faultinject.New(icfg)
	}

	// Deadline lattice: the effective wall-clock cap is min(timeout_ms,
	// -max-run-time); capApplied records whether the server's cap (not the
	// client's narrower ask) is the binding constraint, because only a
	// server-cap blowout is a tenant fault the breaker counts.
	runTimeout := s.cfg.MaxRunTime
	capApplied := runTimeout > 0
	if req.TimeoutMS > 0 {
		asked := time.Duration(req.TimeoutMS) * time.Millisecond
		if runTimeout == 0 || asked < runTimeout {
			runTimeout = asked
			capApplied = false
		}
	}

	// Admission control: a bounded wait-queue in front of the worker
	// semaphore. Above -max-queue (or after -queue-timeout in line) the
	// request is shed with 429 + Retry-After; shedding is cheaper than
	// stalling every tenant behind an unbounded line.
	if int(s.queued.Load()) >= s.cfg.MaxQueue {
		s.shed.Add(1)
		w.Header().Set("Retry-After", retryAfter(s.cfg.QueueTimeout))
		httpError(w, http.StatusTooManyRequests, "queue full (%d waiting); retry later", s.cfg.MaxQueue)
		return
	}
	s.queued.Add(1)
	qt := time.NewTimer(s.cfg.QueueTimeout)
	select {
	case s.sem <- struct{}{}:
		qt.Stop()
		s.queued.Add(-1)
	case <-qt.C:
		s.queued.Add(-1)
		s.shed.Add(1)
		w.Header().Set("Retry-After", retryAfter(s.cfg.QueueTimeout))
		httpError(w, http.StatusTooManyRequests, "no worker slot within %s; retry later", s.cfg.QueueTimeout)
		return
	case <-r.Context().Done():
		qt.Stop()
		s.queued.Add(-1)
		httpError(w, http.StatusServiceUnavailable, "canceled while queued")
		return
	}

	// Cooperative preemption: one cancel flag serves both the wall-clock cap
	// and the request context, so an abandoned request stops burning its
	// worker at the next checkpoint just like an expired one.
	var cancel atomic.Bool
	stopCtx := context.AfterFunc(r.Context(), func() { cancel.Store(true) })
	defer stopCtx()
	if runTimeout > 0 {
		timer := time.AfterFunc(runTimeout, func() { cancel.Store(true) })
		defer timer.Stop()
	}
	cfg.Cancel = &cancel

	// The image is resolved under the worker slot, so assembling and
	// analyzing a new program is bounded by -workers like the run itself.
	img, err := s.images.Get(key, build)
	if err != nil {
		<-s.sem
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	start := time.Now()
	sess := s.pool.Get()
	res, err := sess.Run(img, cfg)
	runs := sess.Runs()
	s.pool.Put(sess)
	<-s.sem

	s.requests.Add(1)
	ts.requests.Add(1)
	if err != nil {
		s.errors.Add(1)
		var pe *session.PoisonedError
		if errors.As(err, &pe) {
			// The panic was contained and the session quarantined; the
			// request is the tenant's breaker fault, the process is fine.
			s.poisons.Add(1)
			ts.poisons.Add(1)
			s.recordBreakerFault(ts)
			httpError(w, http.StatusInternalServerError,
				"run poisoned its session (contained panic: %s); session quarantined", pe.PanicValue)
			return
		}
		httpError(w, http.StatusBadRequest, "run: %v", err)
		return
	}
	ts.instructions.Add(res.Instructions)
	if res.BudgetExhausted {
		ts.budgetHits.Add(1)
	}
	if res.DeadlineExceeded {
		s.deadlineHits.Add(1)
		ts.deadlineHits.Add(1)
		// Blowing the operator's cap (not the client's narrower ask, not a
		// dropped connection) is a tenant fault: enough open the breaker.
		if capApplied && time.Since(start) >= runTimeout {
			s.recordBreakerFault(ts)
		}
	}
	ts.sbCompiled.Add(res.Machine.SBCompiled)
	ts.sbHits.Add(res.Machine.SBHits)
	s.sbCompiled.Add(res.Machine.SBCompiled)
	s.sbHits.Add(res.Machine.SBHits)
	if res.BudgetExhausted || res.DeadlineExceeded || res.VM.Degradations > 0 {
		s.degraded.Add(1)
	}
	var sanSummary *sanitizeSummary
	if res.Sanitize != nil {
		sanSummary = summarizeSanitize(res.Sanitize)
		s.sanitizeRuns.Add(1)
		ts.sanitizeRuns.Add(1)
		if sanSummary.FlaggedSites > 0 {
			s.sanitizeFlagged.Add(1)
		}
		if c := sanSummary.Certify; c != nil {
			s.certifyRuns.Add(1)
			ts.certifyRuns.Add(1)
			if !c.Pass {
				s.certifyFailed.Add(1)
			}
		}
	}

	resp := runResponse{
		Output:           res.Output,
		Cycles:           res.Cycles,
		Instructions:     res.Instructions,
		FPTraps:          res.VM.Traps,
		CorrectnessTraps: res.VM.CorrectTraps,
		Emulated:         res.VM.Emulated,
		Degradations:     res.VM.Degradations,
		SBCompiled:       res.Machine.SBCompiled,
		SBHits:           res.Machine.SBHits,
		BudgetGranted:    granted,
		BudgetExhausted:  res.BudgetExhausted,
		DeadlineExceeded: res.DeadlineExceeded,
		Fault:            res.Fault,
		SessionRuns:      runs,
		Tenant:           tenant,
		TopSites:         res.TopSites,
		TraceJSONL:       string(res.TraceJSONL),
		Sanitize:         sanSummary,
	}
	writeJSON(w, http.StatusOK, resp)
}

// program resolves the request's program to its image-cache key and a
// builder for a miss: bundled targets are keyed by name, inline asm by the
// SHA-256 of its source. A program whose data segment cannot fit a session's
// memory fails to build, so it is never analyzed or cached.
func (s *server) program(req runRequest) (string, func() (*isa.Program, error), error) {
	var key string
	var build func() (*isa.Program, error)
	switch {
	case req.Workload != "" && req.Asm != "":
		return "", nil, fmt.Errorf("workload and asm are mutually exclusive")
	case req.Workload != "":
		t, err := oracle.Lookup(req.Workload)
		if err != nil {
			return "", nil, err
		}
		key, build = t.Name, t.Build
	case req.Asm != "":
		key, build = session.AsmKey(req.Asm), func() (*isa.Program, error) { return asm.Assemble(req.Asm) }
	default:
		return "", nil, fmt.Errorf("one of workload or asm is required")
	}
	return key, func() (*isa.Program, error) {
		prog, err := build()
		if err != nil {
			return nil, err
		}
		base := prog.DataBase
		if base == 0 {
			base = machine.DefaultDataBase
		}
		if base+uint64(len(prog.Data)) > uint64(s.cfg.MemSize) {
			return nil, fmt.Errorf("data segment (%d bytes at %#x) exceeds the %d-byte session memory",
				len(prog.Data), base, s.cfg.MemSize)
		}
		return prog, nil
	}, nil
}

// recordBreakerFault charges one fault to the tenant's breaker and rolls the
// trip count up into the service counter when this fault opened it.
func (s *server) recordBreakerFault(ts *tenantState) {
	now := time.Now()
	_, before := ts.breaker.snapshot(now)
	ts.breaker.record(now, s.cfg.BreakerFaults, s.cfg.BreakerWindow, s.cfg.BreakerCooldown)
	if _, after := ts.breaker.snapshot(now); after > before {
		s.breakerTrips.Add(1)
	}
}

// retryAfter renders a duration as a Retry-After header value: whole
// seconds, at least 1.
func retryAfter(d time.Duration) string {
	secs := int(d.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

func (s *server) tenant(name string) *tenantState {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts, ok := s.tenants[name]
	if !ok {
		ts = &tenantState{}
		s.tenants[name] = ts
	}
	return ts
}

// queueHighWater is the /healthz overload threshold: three quarters of the
// admission queue. Above it the probe still answers 200 (the process is
// healthy) but reports "overloaded" so load balancers can steer away before
// the queue starts shedding.
func (s *server) queueHighWater() int64 {
	hw := int64(s.cfg.MaxQueue) * 3 / 4
	if hw < 1 {
		hw = 1
	}
	return hw
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.queued.Load() >= s.queueHighWater() {
		status = "overloaded"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":     true,
		"status": status,
		"queued": s.queued.Load(),
	})
}

// statsResponse is the GET /stats body.
type statsResponse struct {
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	Degraded uint64 `json:"degraded"`
	Workers  int    `json:"workers"`
	InFlight int    `json:"in_flight"`
	// Overload and resilience counters: current queue depth, requests shed
	// with 429, breaker fast-fails (503) and open events, deadline-truncated
	// runs, and contained run panics (each of which quarantined a session —
	// the pool block carries the matching quarantined/replaced figures).
	Queued       int64  `json:"queued"`
	MaxQueue     int    `json:"max_queue"`
	Shed         uint64 `json:"shed"`
	BreakerFails uint64 `json:"breaker_fails"`
	BreakerTrips uint64 `json:"breaker_trips"`
	DeadlineHits uint64 `json:"deadline_hits"`
	Poisons      uint64 `json:"poisons"`
	// Service-wide superblock counters aggregated over every completed run.
	SBCompiled uint64 `json:"sb_compiled"`
	SBHits     uint64 `json:"sb_hits"`
	// Sanitizer counters: how many runs armed the sanitizer / certification
	// and how many of those flagged sites or failed their verdict.
	SanitizeRuns    uint64 `json:"sanitize_runs"`
	SanitizeFlagged uint64 `json:"sanitize_flagged"`
	CertifyRuns     uint64 `json:"certify_runs"`
	CertifyFailed   uint64 `json:"certify_failed"`
	// SharedSB describes the server-wide warm superblock cache.
	SharedSB *sharedSBStats         `json:"shared_sb,omitempty"`
	Pool     session.PoolStats      `json:"pool"`
	Tenants  map[string]tenantStats `json:"tenants"`
	// Images describes the program image cache: images built (each one
	// analysis), lookups served by a cached image, evictions, and size.
	Images session.ImageStats `json:"images"`
}

// sharedSBStats is the /stats view of the warm superblock cache.
type sharedSBStats struct {
	// Programs and Entries count the cached images that carry published
	// traces and the traces they carry.
	Programs int    `json:"programs"`
	Entries  int    `json:"entries"`
	Lookups  uint64 `json:"lookups"`
	Hits     uint64 `json:"hits"`
	Stores   uint64 `json:"stores"`
	Adopted  uint64 `json:"adopted"`
	// HitRate is Hits/Lookups — the fraction of JIT-armed attaches that found
	// at least one published trace to adopt.
	HitRate float64 `json:"hit_rate"`
}

type tenantStats struct {
	Requests     uint64 `json:"requests"`
	Instructions uint64 `json:"instructions"`
	BudgetHits   uint64 `json:"budget_hits"`
	DeadlineHits uint64 `json:"deadline_hits,omitempty"`
	Poisons      uint64 `json:"poisons,omitempty"`
	Rejected     uint64 `json:"rejected,omitempty"`
	BreakerOpen  bool   `json:"breaker_open,omitempty"`
	BreakerTrips uint64 `json:"breaker_trips,omitempty"`
	SBCompiled   uint64 `json:"sb_compiled"`
	SBHits       uint64 `json:"sb_hits"`
	SanitizeRuns uint64 `json:"sanitize_runs,omitempty"`
	CertifyRuns  uint64 `json:"certify_runs,omitempty"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{
		Requests:        s.requests.Load(),
		Errors:          s.errors.Load(),
		Degraded:        s.degraded.Load(),
		Workers:         s.cfg.Workers,
		InFlight:        len(s.sem),
		Queued:          s.queued.Load(),
		MaxQueue:        s.cfg.MaxQueue,
		Shed:            s.shed.Load(),
		BreakerFails:    s.breakerFails.Load(),
		BreakerTrips:    s.breakerTrips.Load(),
		DeadlineHits:    s.deadlineHits.Load(),
		Poisons:         s.poisons.Load(),
		SBCompiled:      s.sbCompiled.Load(),
		SBHits:          s.sbHits.Load(),
		SanitizeRuns:    s.sanitizeRuns.Load(),
		SanitizeFlagged: s.sanitizeFlagged.Load(),
		CertifyRuns:     s.certifyRuns.Load(),
		CertifyFailed:   s.certifyFailed.Load(),
		Pool:            s.pool.Stats(),
		Tenants:         make(map[string]tenantStats),
		Images:          s.images.Stats(),
	}
	cs := s.sbcache.Stats()
	sb := &sharedSBStats{
		Lookups: cs.Lookups,
		Hits:    cs.Hits,
		Stores:  cs.Stores,
		Adopted: cs.Adopted,
	}
	sb.Programs, sb.Entries = s.images.Traces()
	if cs.Lookups > 0 {
		sb.HitRate = float64(cs.Hits) / float64(cs.Lookups)
	}
	resp.SharedSB = sb
	now := time.Now()
	s.mu.Lock()
	for name, ts := range s.tenants {
		open, trips := ts.breaker.snapshot(now)
		resp.Tenants[name] = tenantStats{
			Requests:     ts.requests.Load(),
			Instructions: ts.instructions.Load(),
			BudgetHits:   ts.budgetHits.Load(),
			DeadlineHits: ts.deadlineHits.Load(),
			Poisons:      ts.poisons.Load(),
			Rejected:     ts.rejected.Load(),
			BreakerOpen:  open,
			BreakerTrips: trips,
			SBCompiled:   ts.sbCompiled.Load(),
			SBHits:       ts.sbHits.Load(),
			SanitizeRuns: ts.sanitizeRuns.Load(),
			CertifyRuns:  ts.certifyRuns.Load(),
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
