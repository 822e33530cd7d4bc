package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"fpvm"
	"fpvm/internal/asm"
	"fpvm/internal/progen"
)

// serve_mix traffic. The rate is about a sixth of the 79 requests/s the
// service completes over two closed-loop connections on a 2-core host. The
// host's speed varies from run to run, mostly with the load of other
// tenants, and queueing turns a slower host into a more than proportionally
// longer latency, which no host-speed scale can undo. At a third of
// capacity, two busy-looping processes on the host raised the median latency
// 3.1 times, and 1.5 times after host-speed scaling; at a sixth, 2.0 and
// 1.07 times.
const (
	serveRate    = 13.0 // offered requests per second, open loop
	serveConns   = 2    // client connections (nproc on the reference host)
	serveLimitMS = 250  // latency limit of goodput_rps
	statsEvery   = 250 * time.Millisecond

	calibrateEvery = 500 * time.Millisecond // calibration kernel period while serving

	asmPoolSize = 48  // distinct inline-asm programs
	asmPoolSeed = 1   // seed of the inline-asm pool
	asmChainLen = 60  // FP instructions per program body
	asmIters    = 100 // loop passes per program
)

// Request kinds of serve_mix.
const (
	kindNamedMPFR       = iota // (a) named target, MPFR-200, default tier
	kindNamedVanillaJIT        // (b) named target, Vanilla, jitthreshold 8 (shared warm superblock cache)
	kindAsmVanilla             // (c) inline asm from a seeded pool, Vanilla
	numKinds
)

var kindNames = [numKinds]string{"named_mpfr", "named_vanilla_jit", "asm_vanilla"}

// kindConfig is the in-process equivalent of each kind's request, used for
// the replay in the traced run.
var kindConfig = [numKinds]runConfig{
	mpfrPlain,
	{"vanilla", tier{jit: 8}},
	{"vanilla", tier{}},
}

// serveNamed are the short bundled targets kinds (a) and (b) draw from: the
// bundled examples and the shorter Figure 12 programs.
var serveNamed = []string{
	"errorbounds/lorenz-short",
	"errorbounds/kahan",
	"lorenz/fig13-trajectory",
	"threebody/orbit",
	"Enzo/Cosmology Sim.",
	"NAS LU/Class S",
}

// program is one distinct request body with its reference.
type program struct {
	kind         int
	name         string // target name, or asm#k for pool program k
	body         []byte
	build        func() (*fpvm.Program, error)
	want         string
	nativeCycles uint64
}

// request is one scheduled send and what came back.
type request struct {
	prog *program
	id   int32
	due  time.Duration // since the start of the timed phase

	sent, done time.Duration
	status     int
	resp       runResponse
	err        error
	traced     bool
}

// runResponse is the part of fpvm-serve's /run response the benchmark reads.
type runResponse struct {
	Output           string `json:"output"`
	Cycles           uint64 `json:"cycles"`
	Instructions     uint64 `json:"instructions"`
	FPTraps          uint64 `json:"fp_traps"`
	BudgetExhausted  bool   `json:"budget_exhausted"`
	DeadlineExceeded bool   `json:"deadline_exceeded"`
	Fault            string `json:"fault"`
	SessionRuns      uint64 `json:"session_runs"`
}

// statsResponse is the part of /stats the benchmark reads.
type statsResponse struct {
	Queued int64 `json:"queued"`
	Pool   struct {
		Gets uint64 `json:"gets"`
		News uint64 `json:"news"`
	} `json:"pool"`
	SharedSB *struct {
		Lookups uint64 `json:"lookups"`
		Hits    uint64 `json:"hits"`
	} `json:"shared_sb"`
}

func (r *request) latencyMS() float64 { return float64(r.done-r.due) / 1e6 }

// check returns nil when the response is a correct, complete run.
func (r *request) check() error {
	switch {
	case r.err != nil:
		return r.err
	case r.status != http.StatusOK:
		return fmt.Errorf("HTTP status %d", r.status)
	case r.resp.BudgetExhausted:
		return errors.New("instruction budget exhausted")
	case r.resp.DeadlineExceeded:
		return errors.New("deadline exceeded")
	case r.resp.Fault != "":
		return fmt.Errorf("fault: %s", r.resp.Fault)
	}
	return compareOutput(r.resp.Output, r.prog.want)
}

// servePrograms builds the inline-asm pool and the references of every
// distinct request: the checked-in MPFR-200 file for kind (a), a native run
// of the same program for the Vanilla kinds (b) and (c). The pool has its
// own fixed seed: pools drawn from the workload seed differed in cost by
// enough to move serve_mix's figures more than any bound allows, so the
// workload seed sets the order of the requests, as it does for the batch
// workloads, and not the programs.
func servePrograms(expectedDir string) ([]*program, error) {
	var progs []*program
	for _, name := range serveNamed {
		prog, err := buildNamed(name)
		if err != nil {
			return nil, err
		}
		nat, err := runNative(prog)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		want, err := loadExpected(expectedDir, name)
		if err != nil {
			return nil, err
		}
		progs = append(progs,
			&program{kind: kindNamedMPFR, name: name, build: named(name), want: want, nativeCycles: nat.cycles,
				body: mustJSON(map[string]any{"workload": name, "arith": "mpfr"})},
			&program{kind: kindNamedVanillaJIT, name: name, build: named(name), want: nat.output, nativeCycles: nat.cycles,
				body: mustJSON(map[string]any{"workload": name, "arith": "vanilla", "jitthreshold": 8})})
	}
	rng := rand.New(rand.NewSource(asmPoolSeed))
	seen := map[string]bool{}
	for len(seen) < asmPoolSize {
		src := progen.FPLoopSource(rng, asmChainLen, asmIters)
		if seen[src] {
			continue
		}
		seen[src] = true
		prog, err := asm.Assemble(src)
		if err != nil {
			return nil, fmt.Errorf("pool program %d: %w", len(seen)-1, err)
		}
		nat, err := runNative(prog)
		if err != nil {
			return nil, fmt.Errorf("pool program %d: %w", len(seen)-1, err)
		}
		progs = append(progs, &program{kind: kindAsmVanilla, name: fmt.Sprintf("asm#%d", len(seen)-1),
			build: func() (*fpvm.Program, error) { return asm.Assemble(src) },
			want:  nat.output, nativeCycles: nat.cycles,
			body: mustJSON(map[string]any{"asm": src, "arith": "vanilla"})})
	}
	return progs, nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of strings and ints always marshal
	}
	return b
}

// schedule draws the timed phase's requests: n sends at a fixed interval.
// The kinds take turns in a fixed rotation, so the mix is the same for every
// seed and a heavy MPFR request is never due right after another. Within a
// kind the seed shuffles a deck that holds every program equally often.
// With the kinds shuffled together instead, how heavy requests happened to
// cluster moved the median latency by up to 20% from seed to seed.
func schedule(seed int64, progs []*program, n int) []*request {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var decks [numKinds][]*program
	for _, p := range progs {
		decks[p.kind] = append(decks[p.kind], p)
	}
	perKind := (n + numKinds - 1) / numKinds
	for k, ps := range decks {
		deck := make([]*program, perKind)
		for i := range deck {
			deck[i] = ps[i%len(ps)]
		}
		rng.Shuffle(perKind, func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		decks[k] = deck
	}
	reqs := make([]*request, n)
	for i := range reqs {
		reqs[i] = &request{
			prog: decks[i%numKinds][i/numKinds],
			id:   int32(i + 1),
			due:  time.Duration(float64(i) / serveRate * float64(time.Second)),
		}
	}
	return reqs
}

// server is an fpvm-serve child process.
type server struct {
	cmd    *exec.Cmd
	base   string
	stderr bytes.Buffer
	drain  sync.WaitGroup
}

// startServer starts fpvm-serve with default flags on a free loopback port
// and waits until /healthz answers.
func startServer(bin string) (*server, error) {
	s := &server{cmd: exec.Command(bin, "-addr", "127.0.0.1:0")}
	// If the benchmark is killed, the server goes with it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	addr := make(chan string, 1)
	s.drain.Add(1)
	go func() {
		defer s.drain.Done()
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			s.stderr.WriteString(line + "\n")
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				if a, _, ok := strings.Cut(rest, " "); ok {
					select {
					case addr <- a:
					default:
					}
				}
			}
		}
		close(addr)
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			s.stop()
			return nil, fmt.Errorf("fpvm-serve exited before listening: %s", s.stderr.String())
		}
		s.base = "http://" + a
	case <-time.After(20 * time.Second):
		s.stop()
		return nil, errors.New("fpvm-serve did not report its address within 20s")
	}
	for deadline := time.Now().Add(20 * time.Second); ; {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("fpvm-serve not healthy within 20s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop asks the server to drain and exit, kills it if it has not within
// 15 s, and waits for the process and its stderr reader.
func (s *server) stop() error {
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { s.drain.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-done
	}
	return s.cmd.Wait()
}

func (s *server) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }

func (s *server) stats(c *http.Client) (statsResponse, error) {
	var st statsResponse
	resp, err := c.Get(s.base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/stats: HTTP %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// send posts one request body and decodes the response.
func (s *server) send(c *http.Client, body []byte) (int, runResponse, error) {
	var rr runResponse
	resp, err := c.Post(s.base+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, rr, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, rr, nil
	}
	return resp.StatusCode, rr, json.NewDecoder(resp.Body).Decode(&rr)
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// serveSetup computes the references, starts the server and warms it with
// one request for every distinct program.
func serveSetup(o options) ([]*program, *server, error) {
	progs, err := servePrograms(o.expectedDir)
	if err != nil {
		return nil, nil, err
	}
	srv, err := startServer(o.serverBin)
	if err != nil {
		return nil, nil, err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	for _, p := range progs {
		status, rr, err := srv.send(c, p.body)
		r := &request{prog: p, status: status, resp: rr, err: err}
		if err := r.check(); err != nil {
			srv.stop()
			return nil, nil, fmt.Errorf("warm-up %s %s: %w", kindNames[p.kind], p.name, err)
		}
	}
	return progs, srv, nil
}

// runServe is the serve_mix workload.
func runServe(o options) (*outcome, error) {
	cal := newCalibrator()
	var setups []float64
	var progs []*program
	var srv *server
	for i := 0; i < serveSetupReps; i++ {
		t0 := time.Now()
		p, s, err := serveSetup(o)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		cal.sample()
		if i < serveSetupReps-1 {
			if err := s.stop(); err != nil {
				return nil, fmt.Errorf("stopping set-up server: %w", err)
			}
			continue
		}
		progs, srv = p, s
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()

	n := int(serveRate * o.seconds)
	reqs := schedule(o.seed, progs, n)
	var tr *tracer
	if o.trace {
		tr = newTracer()
		for _, r := range reqs[n/2:] {
			r.traced = true
		}
	}
	pollClient := newClient()
	defer pollClient.CloseIdleConnections()
	before, err := srv.stats(pollClient)
	if err != nil {
		return nil, err
	}

	// Open loop: a dispatcher releases each request at its due time into a
	// queue sized to hold them all; serveConns workers, one connection each,
	// send them. A request waiting for a free connection counts that wait in
	// its latency, which is timed from when it was due.
	queue := make(chan *request, n)
	stopPoll := make(chan struct{})
	var queued []float64
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(statsEvery)
		defer t.Stop()
		for {
			select {
			case <-stopPoll:
				return
			case <-t.C:
				t0 := time.Now()
				st, err := srv.stats(pollClient)
				tr.record("serve.stats", 0, t0, time.Now())
				if err == nil {
					queued = append(queued, float64(st.Queued))
				}
			}
		}
	}()
	// The calibration kernel runs twice a second through the timed phase, in
	// the client beside the working server, so its median time tracks the
	// host's speed under the same load as the requests. Samples taken only
	// while no request was in flight tracked it worse.
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(calibrateEvery)
		defer t.Stop()
		for {
			select {
			case <-stopPoll:
				return
			case <-t.C:
				cal.sample()
			}
		}
	}()
	var workers sync.WaitGroup
	for w := 0; w < serveConns; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for r := range queue {
				r.sent = time.Since(start)
				r.status, r.resp, r.err = srv.send(c, r.prog.body)
				r.done = time.Since(start)
				if r.traced {
					tr.record("serve.request", r.id, start.Add(r.sent), start.Add(r.done))
				}
			}
		}()
	}
	for _, r := range reqs {
		if d := time.Until(start.Add(r.due)); d > 0 {
			time.Sleep(d)
		}
		queue <- r
	}
	close(queue)
	workers.Wait()
	wall := time.Since(start)
	close(stopPoll)
	wg.Wait()

	after, err := srv.stats(pollClient)
	if err != nil {
		return nil, err
	}
	rss, err := vmHWM(srv.pid())
	if err != nil {
		return nil, err
	}
	stopped = true
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("fpvm-serve shutdown: %w", err)
	}
	for i := 0; i < setupReps; i++ {
		cal.sample()
	}

	fails := &failures{seed: o.seed}
	var s serveSamples
	var logSlow []float64
	var insts, busy float64
	good := 0
	for _, r := range reqs {
		if err := r.check(); err != nil {
			fails.add(r.prog.name, kindNames[r.prog.kind], err)
		} else {
			if r.latencyMS() <= serveLimitMS {
				good++
			}
			insts += float64(r.resp.Instructions)
			logSlow = append(logSlow, math.Log(float64(r.resp.Cycles)/float64(r.prog.nativeCycles)))
		}
		if r.resp.SessionRuns == 1 {
			s.fresh++
		}
		busy += float64(r.done-r.sent) / 1e9
		s.lat = append(s.lat, r.latencyMS())
		s.lag = append(s.lag, float64(r.sent-r.due)/1e6)
		s.byKind[r.prog.kind] = append(s.byKind[r.prog.kind], r.latencyMS())
	}
	out := &outcome{attempted: n, failed: fails.n}
	fmt.Printf("serve_mix: %d requests at %.0f/s over %d connections, seed %d, %.2f s\n", n, serveRate, serveConns, o.seed, wall.Seconds())
	fmt.Printf("  error_frac %.4f (%d of %d failed)\n", ratio(float64(out.failed), float64(n)), out.failed, n)
	tailMS, tailPct := tail(s.lat)
	fmt.Printf("  latency tail is p%.2f over %d requests (%d beyond); limit %d ms\n", tailPct, n, tailBeyond, serveLimitMS)
	for k := range s.byKind {
		kt, kp := tail(s.byKind[k])
		fmt.Printf("  %-18s %4d requests, p50 %.2f ms, p%.2f %.2f ms\n", kindNames[k], len(s.byKind[k]),
			median(s.byKind[k]), kp, kt)
	}
	// Host times and rates are scaled to the reference host, as the batch
	// workloads do. goodput_rps is not: at this load it is the offered rate.
	k := cal.scale()
	p50 := kindMedian(s.byKind)
	fmt.Printf("  host: calibration kernel %.2f ms (reference %.0f ms); raw guest_mips %.4f, latency p50 %.2f ms, tail %.2f ms, scaled by %.4f\n",
		cal.ms(), refCalibrationMS, insts/busy/1e6, p50, tailMS, k)
	// Summed in sorted order, so the seed's request order does not change
	// the last digits.
	sort.Float64s(logSlow)
	if !o.trace {
		out.metrics = map[string]metric{
			"guest_mips":       {insts / busy / 1e6 / k, "Minst/s"},
			"modeled_slowdown": {math.Exp(mean(logSlow)), "x"},
			"setup_s":          {median(setups) * k, "s"},
			"peak_rss_mib":     {rss, "MiB"},
			"latency_ms_p50":   {p50 * k, "ms"},
			"latency_ms_tail":  {tailMS * k, "ms"},
			"goodput_rps":      {float64(good) / wall.Seconds(), "1/s"},
		}
		return out, nil
	}
	return serveTraced(o, out, reqs, s, tr, before, after, queued, cal)
}

// kindMedian is the geometric mean over the request kinds of each kind's
// median latency. The kinds differ in cost by more than ten times, so the
// median of all requests falls on the edge between two kinds' clusters, and
// moved by 14% from run to run where this moved by 4%.
func kindMedian(byKind [numKinds][]float64) float64 {
	logSum := 0.0
	for _, lat := range byKind {
		logSum += math.Log(median(lat))
	}
	return math.Exp(logSum / numKinds)
}

// serveSamples are the per-request figures of a serve_mix run: latency and
// send lag in ms, latency by kind, and how many responses came from a fresh
// session.
type serveSamples struct {
	lat, lag []float64
	byKind   [numKinds][]float64
	fresh    int
}

// serveTraced finishes a traced serve_mix run: it replays every traced
// request in process through the batch pipeline (the in-process cost of the
// same program and configuration), derives the per-layer metrics, and
// attributes the tail.
func serveTraced(o options, out *outcome, reqs []*request, s serveSamples, tr *tracer, before, after statsResponse, queued []float64, cal *calibrator) (*outcome, error) {
	rt := newTracer()
	var c counters
	g0 := readGo()
	var overhead []float64
	var untraced, traced [numKinds][]float64
	for _, r := range reqs {
		if !r.traced {
			untraced[r.prog.kind] = append(untraced[r.prog.kind], r.latencyMS())
			continue
		}
		traced[r.prog.kind] = append(traced[r.prog.kind], r.latencyMS())
		ro, err := runPipeline(r.prog.build, kindConfig[r.prog.kind], rt, r.id)
		if err == nil {
			err = compareOutput(ro.output, r.prog.want)
		}
		if err != nil {
			return nil, fmt.Errorf("replay of %s %s: %w", kindNames[r.prog.kind], r.prog.name, err)
		}
		c.add(ro.counts)
		overhead = append(overhead, r.latencyMS()-float64(ro.hostNS)/1e6)
	}
	g1 := readGo()
	layers := rt.layers()
	m := layerMetrics(layers, c, 1)
	m["go.alloc_bytes_per_inst"] = metric{ratio(g1.allocBytes-g0.allocBytes, float64(c.instructions)), "B"}
	m["go.gc_cpu_frac"] = metric{ratio(g1.gcCPU-g0.gcCPU, g1.totalCPU-g0.totalCPU), "share"}
	tracedP50, untracedP50 := kindMedian(traced), kindMedian(untraced)
	m["trace.overhead_pct"] = metric{100 * (tracedP50 - untracedP50) / untracedP50, "%"}
	m["host.calibration_ms"] = metric{cal.ms(), "ms"}

	m["session.fresh_frac"] = metric{float64(s.fresh) / float64(len(reqs)), "share"}
	gets, news := after.Pool.Gets-before.Pool.Gets, after.Pool.News-before.Pool.News
	fmt.Printf("  sessions: %d of %d responses fresh (session_runs == 1); /stats pool: %d news of %d gets\n",
		s.fresh, len(reqs), news, gets)
	hit := 0.0
	if after.SharedSB != nil && before.SharedSB != nil {
		hit = ratio(float64(after.SharedSB.Hits-before.SharedSB.Hits), float64(after.SharedSB.Lookups-before.SharedSB.Lookups))
	}
	m["sbcache.hit_rate"] = metric{hit, "share"}
	m["serve.queued_mean"] = metric{mean(queued), "count"}
	m["serve.overhead_ms"] = metric{median(overhead), "ms"}
	for k, name := range kindNames {
		m["serve.request_ms."+name] = metric{median(s.byKind[k]), "ms"}
	}
	lagTail, _ := tail(s.lag)
	m["loadgen.lag_ms_tail"] = metric{lagTail, "ms"}
	out.metrics = m

	reconcile(o.workload+" (in-process replay of traced requests)", layers, c, 1)
	if req := tr.layers()["serve.request"]; req != nil {
		fmt.Printf("    %-22s %14.3f ms over %d requests (client view)\n", "serve.request", float64(req.TotalNS)/1e6, req.Calls)
	}
	fmt.Printf("    %-22s %14.3f ms median per request beyond the in-process replay\n", "serve overhead", median(overhead))
	latTail, _ := tail(s.lat)
	tailAttribution(reqs, latTail)
	fmt.Printf("  tracing overhead: traced-half p50 %.2f ms vs untraced-half p50 %.2f ms (%+.1f%%)\n",
		tracedP50, untracedP50, m["trace.overhead_pct"].Value)
	for _, t := range []struct {
		tr   *tracer
		name string
	}{{tr, "client"}, {rt, "replay"}} {
		path, err := t.tr.write(traceDir, fmt.Sprintf("%s-seed%d-%s", o.workload, o.seed, t.name))
		if err != nil {
			return nil, err
		}
		fmt.Printf("  %s spans written to %s\n", t.name, path)
	}
	return out, nil
}

// tailAttribution prints the requests at or beyond the tail latency by kind
// and by fresh or warm session.
func tailAttribution(reqs []*request, tail float64) {
	var n [numKinds][2]int
	total := 0
	for _, r := range reqs {
		if r.latencyMS() < tail {
			continue
		}
		f := 0
		if r.resp.SessionRuns == 1 {
			f = 1
		}
		n[r.prog.kind][f]++
		total++
	}
	fmt.Printf("  tail attribution (%d requests at or above %.2f ms): kind, warm, fresh\n", total, tail)
	for k, name := range kindNames {
		fmt.Printf("    %-18s %4d %4d\n", name, n[k][0], n[k][1])
	}
}
