// Package loadgen is the concurrency harness for the session layer: it
// drives many session runs through a shared pool (or many HTTP requests at a
// running fpvm-serve) from a bounded set of workers and reports throughput
// and tail latency. It is both the benchmark record's sessions/sec source
// and the smoke-test client for the service — the same harness that proves
// 500 concurrent sessions stay race-clean also sizes the figure.
package loadgen

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fpvm/internal/machine"
	"fpvm/internal/session"
)

// Options shapes a load run.
type Options struct {
	// Sessions is the total number of runs to execute (default 100).
	Sessions int
	// Workers is the number of concurrent workers (default 8). Each worker
	// owns one checkout at a time, so Workers is also the peak number of
	// simultaneously live sessions.
	Workers int
	// Accept, when non-nil, decides which HTTP status codes count as success
	// for RunHTTP (default: only 200). A chaos-load client driving a shedding
	// server accepts 429/503 as correct service behavior, not errors.
	Accept func(status int) bool
}

func (o Options) withDefaults() Options {
	if o.Sessions <= 0 {
		o.Sessions = 100
	}
	if o.Workers <= 0 {
		o.Workers = 8
	}
	if o.Workers > o.Sessions {
		o.Workers = o.Sessions
	}
	return o
}

// Report is the harvest of one load run.
type Report struct {
	Sessions int           // completed runs
	Errors   int           // runs that failed (setup error, non-200, transport)
	Workers  int           // concurrency used
	Elapsed  time.Duration // wall clock for the whole run
	PerSec   float64       // sessions per second of wall clock
	P50      time.Duration // median per-session latency
	P99      time.Duration // 99th-percentile per-session latency
	Pool     session.PoolStats
	// Statuses counts HTTP responses by status code (RunHTTP only; transport
	// errors count under status 0). Chaos-load invariants read it to tell
	// shed (429), breaker (503), and poison (500) traffic apart.
	Statuses map[int]int
	// SBCompiled sums superblock compiles across all runs. Under a shared
	// warm SBCache this stays near the distinct-entry count of the program
	// (only the first tenant compiles); without one it scales with Sessions.
	SBCompiled uint64
}

// Write renders the one-line human summary fpvm-serve -smoke prints.
func (r *Report) Write(w io.Writer) {
	fmt.Fprintf(w, "loadgen: %d sessions, %d workers: %.0f sessions/sec, p50 %s, p99 %s, %d errors",
		r.Sessions, r.Workers, r.PerSec, r.P50, r.P99, r.Errors)
	if r.Pool.Gets > 0 {
		fmt.Fprintf(w, " (pool: %d gets, %d fresh)", r.Pool.Gets, r.Pool.News)
	}
	if r.SBCompiled > 0 {
		fmt.Fprintf(w, " (sb compiles: %d)", r.SBCompiled)
	}
	fmt.Fprintln(w)
}

// Run drives opts.Sessions runs of img under cfg through pool from
// opts.Workers concurrent workers. Every run shares the one image, so the
// pool never re-predecodes or re-analyzes the program — the steady state a
// serving deployment reaches once its image cache is hot.
func Run(pool *session.Pool, img *machine.Image, cfg session.Config, opts Options) *Report {
	opts = opts.withDefaults()
	before := pool.Stats()
	durs := make([]time.Duration, opts.Sessions)
	var next, errs atomic.Int64
	var sbCompiled atomic.Uint64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= opts.Sessions {
					return
				}
				t0 := time.Now()
				if res, err := pool.Run(img, cfg); err != nil {
					errs.Add(1)
				} else {
					sbCompiled.Add(res.Machine.SBCompiled)
				}
				durs[i] = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	rep := summarize(durs, time.Since(start), opts, int(errs.Load()))
	rep.SBCompiled = sbCompiled.Load()
	after := pool.Stats()
	rep.Pool = session.PoolStats{
		Gets:        after.Gets - before.Gets,
		Puts:        after.Puts - before.Puts,
		News:        after.News - before.News,
		Poisoned:    after.Poisoned - before.Poisoned,
		Quarantined: after.Quarantined - before.Quarantined,
		Replaced:    after.Replaced - before.Replaced,
	}
	return rep
}

// RunHTTP drives opts.Sessions POSTs of body at url from opts.Workers
// concurrent workers — the out-of-process variant of Run, used by the serve
// smoke test. Any transport error or non-200 status counts as an error.
func RunHTTP(client *http.Client, url string, body []byte, opts Options) *Report {
	opts = opts.withDefaults()
	if client == nil {
		client = http.DefaultClient
	}
	accept := opts.Accept
	if accept == nil {
		accept = func(status int) bool { return status == http.StatusOK }
	}
	durs := make([]time.Duration, opts.Sessions)
	statuses := make([]int, opts.Sessions)
	var next, errs atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= opts.Sessions {
					return
				}
				t0 := time.Now()
				resp, err := client.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					errs.Add(1)
					// statuses[i] stays 0: transport failure.
				} else {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					statuses[i] = resp.StatusCode
					if !accept(resp.StatusCode) {
						errs.Add(1)
					}
				}
				durs[i] = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	rep := summarize(durs, time.Since(start), opts, int(errs.Load()))
	rep.Statuses = make(map[int]int)
	for _, st := range statuses {
		rep.Statuses[st]++
	}
	return rep
}

func summarize(durs []time.Duration, elapsed time.Duration, opts Options, errs int) *Report {
	sorted := make([]time.Duration, len(durs))
	copy(sorted, durs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rep := &Report{
		Sessions: opts.Sessions,
		Errors:   errs,
		Workers:  opts.Workers,
		Elapsed:  elapsed,
	}
	if elapsed > 0 {
		rep.PerSec = float64(opts.Sessions) / elapsed.Seconds()
	}
	if n := len(sorted); n > 0 {
		rep.P50 = sorted[n/2]
		i99 := n * 99 / 100
		if i99 >= n {
			i99 = n - 1
		}
		rep.P99 = sorted[i99]
	}
	return rep
}
