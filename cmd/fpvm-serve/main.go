// fpvm-serve is the multi-tenant FPVM execution service: a long-running
// HTTP/JSON server that runs guest programs under alternative arithmetic on
// a pool of reusable sessions. It is the paper's §7 "FPVM as an operating
// system service" direction made concrete — many tenants, one process,
// bounded concurrency, quotas that degrade instead of kill.
//
// Usage:
//
//	fpvm-serve -addr :8080 -workers 16 -max-inst 50000000
//	fpvm-serve -smoke -sessions 50 -j 16
//
// Endpoints:
//
//	POST /run      run a guest program; see the runRequest JSON shape
//	GET  /healthz  liveness probe
//	GET  /stats    service, pool, and per-tenant counters
//
// Example:
//
//	curl -s localhost:8080/run -d '{"workload":"FBench","arith":"mpfr","trace":false}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fpvm/internal/arith"
	"fpvm/internal/chaosload"
	"fpvm/internal/fpvm"
	"fpvm/internal/isa"
	"fpvm/internal/loadgen"
	"fpvm/internal/oracle"
	"fpvm/internal/patch"
	"fpvm/internal/session"
)

func main() { os.Exit(Run(os.Args[1:], os.Stdout, os.Stderr)) }

// Run is the testable entry point, mirroring the other fpvm commands.
func Run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fpvm-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "127.0.0.1:8080", "listen address")
		workers   = fs.Int("workers", 8, "max concurrently executing sessions (excess requests queue)")
		maxInst   = fs.Uint64("max-inst", 50_000_000, "per-request instruction quota ceiling")
		quota     = fs.Uint64("tenant-quota", 0, "per-tenant instruction quota (0 = same as -max-inst)")
		memKiB    = fs.Int("mem-kib", 1024, fmt.Sprintf("per-session guest memory in KiB (at most %d)", isa.MaxMemSize>>10))
		arenaSoft = fs.Int("arena-soft", 0, "arena soft cap: forced GC above this many live shadows (0 = off)")
		arenaHard = fs.Int("arena-hard", 0, "arena hard cap: degrade to native above this many live shadows (0 = off)")
		maxRun    = fs.Duration("max-run-time", 0, "per-run wall-clock cap; expired runs are truncated and harvested with deadline_exceeded (0 = off)")
		maxQueue  = fs.Int("max-queue", 0, "max requests waiting for a worker slot before shedding with 429 (0 = 4x workers)")
		queueTO   = fs.Duration("queue-timeout", 0, "max wait for a worker slot before shedding with 429 (0 = 5s)")
		brFaults  = fs.Int("breaker-faults", 0, "per-tenant faults (poisons, deadline-cap blowouts) within -breaker-window that open the circuit breaker (0 = 5)")
		brWindow  = fs.Duration("breaker-window", 0, "circuit-breaker sliding window (0 = 30s)")
		brCool    = fs.Duration("breaker-cooldown", 0, "how long an open breaker fast-fails a tenant with 503 (0 = 10s)")
		allowF    = fs.Bool("allow-faults", false, "honor the request-level fault-injection spec (chaos harness only)")
		smoke     = fs.Bool("smoke", false, "smoke test: start the server on an ephemeral port, fire -sessions concurrent HTTP requests, assert all 200s and a clean shutdown")
		chaosLd   = fs.Bool("chaosload", false, "chaos-under-load test: serve on an ephemeral port with fault injection armed, drive healthy and hostile tenant streams concurrently, and enforce the resilience invariants")
		sessions  = fs.Int("sessions", 50, "total requests for -smoke")
		jobs      = fs.Int("j", 16, "concurrent clients for -smoke")
		target    = fs.String("workload", "FBench", "target for -smoke (oracle spelling)")
		arithName = fs.String("arith", "vanilla", "arithmetic system for -smoke")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *memKiB<<10 > isa.MaxMemSize {
		fmt.Fprintf(stderr, "fpvm-serve: -mem-kib %d exceeds the %d KiB guest memory maximum\n", *memKiB, isa.MaxMemSize>>10)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "fpvm-serve:", err)
		return 1
	}

	cfg := serverConfig{
		Workers:         *workers,
		MaxInst:         *maxInst,
		TenantQuota:     *quota,
		MemSize:         *memKiB << 10,
		VM:              fpvm.Config{ArenaSoftCap: *arenaSoft, ArenaHardCap: *arenaHard},
		MaxRunTime:      *maxRun,
		MaxQueue:        *maxQueue,
		QueueTimeout:    *queueTO,
		BreakerFaults:   *brFaults,
		BreakerWindow:   *brWindow,
		BreakerCooldown: *brCool,
		AllowFaults:     *allowF,
	}

	if *smoke {
		return runSmoke(stdout, stderr, cfg, *target, *arithName, *sessions, *jobs)
	}
	if *chaosLd {
		return runChaosLoad(stdout, stderr)
	}

	srv := newServer(cfg)
	httpSrv := &http.Server{Handler: srv.handler()}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stderr, "fpvm-serve: listening on %s (%d workers, %d KiB/session)\n",
		ln.Addr(), cfg.withDefaults().Workers, *memKiB)

	// Serve until SIGINT/SIGTERM, then drain in-flight requests.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return fail(err)
		}
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			return fail(fmt.Errorf("shutdown: %w", err))
		}
		fmt.Fprintln(stderr, "fpvm-serve: clean shutdown")
	}
	return 0
}

// runSmoke is the serve-smoke CI stage: a real server on an ephemeral port,
// n concurrent POST /run requests through the HTTP load harness, then a
// drained shutdown. Any non-200, transport error, or shutdown failure is
// fatal.
func runSmoke(stdout, stderr io.Writer, cfg serverConfig, target, arithName string, n, jobs int) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "fpvm-serve:", err)
		return 1
	}
	srv := newServer(cfg)
	httpSrv := &http.Server{Handler: srv.handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	body := fmt.Sprintf(`{"workload":%q,"arith":%q,"tenant":"smoke"}`, target, arithName)
	rep := loadgen.RunHTTP(nil, "http://"+ln.Addr().String()+"/run", []byte(body),
		loadgen.Options{Sessions: n, Workers: jobs})
	rep.Write(stdout)

	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return fail(fmt.Errorf("shutdown: %w", err))
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fail(err)
	}
	if rep.Errors > 0 {
		return fail(fmt.Errorf("%d of %d requests were not 200s", rep.Errors, rep.Sessions))
	}
	fmt.Fprintf(stdout, "serve-smoke: %d/%d requests returned 200, clean shutdown\n", rep.Sessions, rep.Sessions)
	return 0
}

// runChaosLoad is the chaos-under-load CI stage: a real server on an
// ephemeral port, armed for hostility (fault injection allowed, a tight
// wall-clock cap, a fast breaker), driven by the chaosload harness's
// concurrent healthy and hostile tenant streams. The harness checks the
// client-observable invariants; this driver adds the last one — a clean
// drain on shutdown after the campaign.
func runChaosLoad(stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "fpvm-serve:", err)
		return 1
	}
	const chaosWorkers = 4
	// The wall-clock cap must separate the hostile guests (unbounded spins
	// only the cap can stop) from the healthy ones on whatever hardware the
	// campaign lands on: a loaded CI runner or the race detector slows every
	// run by an order of magnitude, and a healthy tenant blowing the cap is
	// charged as a breaker fault — exactly the false positive the campaign
	// forbids. So the cap is calibrated, not fixed: one solo run of the
	// slowest healthy workload, scaled by the worker count (all workers can
	// contend for one core) with 5x margin on top, floored at 500ms for
	// idle hardware.
	solo, err := timeHealthyRun()
	if err != nil {
		return fail(fmt.Errorf("calibrate wall-clock cap: %w", err))
	}
	runCap := 5 * chaosWorkers * solo
	if runCap < 500*time.Millisecond {
		runCap = 500 * time.Millisecond
	}
	fmt.Fprintf(stderr, "chaosload: wall-clock cap %s (solo Lorenz %s)\n", runCap, solo)
	cfg := serverConfig{
		Workers: chaosWorkers,
		// The spin guests must hit the wall-clock cap, never the instruction
		// budget — the campaign is about deadlines, not quotas.
		MaxInst:         1 << 40,
		MemSize:         256 << 10,
		MaxRunTime:      runCap,
		BreakerFaults:   3,
		BreakerWindow:   time.Minute,
		BreakerCooldown: time.Minute,
		AllowFaults:     true,
	}
	srv := newServer(cfg)
	httpSrv := &http.Server{Handler: srv.handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	rep := chaosload.Run(chaosload.Options{
		URL: "http://" + ln.Addr().String(),
		Log: stderr,
	})

	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return fail(fmt.Errorf("drain after chaos campaign: %w", err))
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fail(err)
	}
	rep.WriteReport(stdout)
	if !rep.Ok() {
		return 1
	}
	fmt.Fprintln(stdout, "chaosload: clean drain on shutdown")
	return 0
}

// timeHealthyRun measures one solo vanilla run of the chaos campaign's
// slowest healthy workload (Lorenz, ~25ms on idle hardware) — the yardstick
// runChaosLoad scales its wall-clock cap from.
func timeHealthyRun() (time.Duration, error) {
	t, err := oracle.Lookup("workload:Lorenz Attractor")
	if err != nil {
		return 0, err
	}
	prog, err := t.Build()
	if err != nil {
		return 0, err
	}
	img, err := patch.NewImage(prog)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if _, err := session.New().Run(img, session.Config{
		Config:  fpvm.Config{System: arith.Vanilla{}},
		MaxInst: 1 << 40,
		MemSize: 256 << 10,
	}); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}
