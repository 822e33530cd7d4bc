// fpvm-bench regenerates the tables and figures of the FPVM paper's
// evaluation (§5). Each experiment prints a plain-text table shaped like
// the corresponding figure.
//
// Usage:
//
//	fpvm-bench                 # run every experiment
//	fpvm-bench -exp fig12      # one experiment
//	fpvm-bench -exp fig9 -prec 512 -quick
//	fpvm-bench -seqemu -exp fig9,fig12   # with trap-coalescing ablation columns
//	fpvm-bench -json -quick              # machine-readable per-workload records
//	fpvm-bench -json -quick -topsites 5  # records with per-PC trap-site rankings
//	fpvm-bench -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"fpvm/internal/experiments"
)

// startProfiles arms the optional pprof outputs and returns a stop function
// that must run on every exit path (CPU profiling stops, and the heap profile
// is written after a forced GC so live objects dominate the snapshot).
func startProfiles(cpuPath, memPath string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err == nil {
				runtime.GC()
				pprof.Lookup("allocs").WriteTo(f, 0)
				f.Close()
			}
		}
	}, nil
}

func main() { os.Exit(Run(os.Args[1:], os.Stdout, os.Stderr)) }

// writeDoc renders the bench document as indented JSON.
func writeDoc(w io.Writer, doc *experiments.BenchDoc) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// Run is the testable entry point: it executes the CLI with the given
// arguments and output streams and returns the process exit code.
func Run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fpvm-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "", "comma-separated experiment ids (empty = all)")
		prec     = fs.Uint("prec", 200, "MPFR precision in bits")
		quick    = fs.Bool("quick", false, "smaller configurations for a fast pass")
		list     = fs.Bool("list", false, "list experiments")
		jobs     = fs.Int("j", 0, "experiment cells to run concurrently (0 = GOMAXPROCS, 1 = sequential)")
		jsonOut  = fs.Bool("json", false, "emit machine-readable per-workload records (cycles, traps, sequences, GC) instead of figure tables")
		seqemu   = fs.Bool("seqemu", false, "enable sequence emulation (trap coalescing); adds ablation columns to fig9/fig12")
		seqlen   = fs.Int("seqlen", 16, "max instructions coalesced per trap delivery (with -seqemu)")
		jit      = fs.Bool("jit", false, "enable the trace-JIT superblock tier; adds ablation columns to fig9/fig12 and jit rows to -json")
		jitT     = fs.Int("jitthreshold", 8, "deliveries at one site before its run is compiled into a superblock (with -jit)")
		topSites = fs.Int("topsites", 0, "with -json: attach trap telemetry and export the N hottest trap sites per record")
		storm    = fs.Uint64("storm", 0, "trap-storm governor threshold: sites trapping more than N times are patched to demote and stay native (0 = off)")
		sessions = fs.Int("sessions", 0, "with -json: attach a session-load record driving N runs through a pooled session (sessions/sec, p50/p99)")
		loadJobs = fs.Int("load-j", 16, "with -sessions: concurrent load-harness workers")
		outFile  = fs.String("out", "", "with -json: also write the document to this file (e.g. BENCH_6.json)")
		gateFile = fs.String("gate", "", "regression gate: run the -json bench and compare against this baseline document, exiting 1 on cycles/traps/ns-per-step regressions")
		cpuProf  = fs.String("cpuprofile", "", "write a pprof CPU profile of the bench run to this file")
		memProf  = fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, e := range experiments.Registry {
			fmt.Fprintf(stdout, "%-12s %s\n", e.ID, e.Title)
		}
		return 0
	}

	maxSeq := 0
	if *seqemu {
		maxSeq = *seqlen
	}
	jitThresh := 0
	if *jit {
		jitThresh = *jitT
	}

	stopProf, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(stderr, "fpvm-bench: %v\n", err)
		return 1
	}
	defer stopProf()

	if *jsonOut || *gateFile != "" {
		opts := experiments.Options{
			W:              stdout,
			Prec:           *prec,
			Quick:          *quick,
			Workers:        *jobs,
			MaxSequenceLen: maxSeq,
			TopSites:       *topSites,
			StormThreshold: *storm,
			JITThreshold:   jitThresh,
			Sessions:       *sessions,
			LoadWorkers:    *loadJobs,
		}
		doc, err := experiments.BenchDocData(opts)
		if err != nil {
			fmt.Fprintf(stderr, "fpvm-bench: %v\n", err)
			return 1
		}
		if *jsonOut {
			if err := writeDoc(stdout, doc); err != nil {
				fmt.Fprintf(stderr, "fpvm-bench: %v\n", err)
				return 1
			}
		}
		if *outFile != "" {
			f, err := os.Create(*outFile)
			if err != nil {
				fmt.Fprintf(stderr, "fpvm-bench: %v\n", err)
				return 1
			}
			werr := writeDoc(f, doc)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				fmt.Fprintf(stderr, "fpvm-bench: writing %s: %v\n", *outFile, werr)
				return 1
			}
		}
		if *gateFile != "" {
			base, err := experiments.ReadBenchDoc(*gateFile)
			if err != nil {
				fmt.Fprintf(stderr, "fpvm-bench: %v\n", err)
				return 1
			}
			if bad := experiments.GateBench(base, doc); len(bad) > 0 {
				fmt.Fprintf(stderr, "fpvm-bench: %d regressions vs %s:\n", len(bad), *gateFile)
				for _, msg := range bad {
					fmt.Fprintf(stderr, "  %s\n", msg)
				}
				return 1
			}
			fmt.Fprintf(stderr, "fpvm-bench: no regressions vs %s (%d rows)\n", *gateFile, len(base.Rows))
		}
		return 0
	}

	var ids []string
	if *exp == "" {
		for _, e := range experiments.Registry {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*exp, ",")
	}

	for i, id := range ids {
		e, ok := experiments.Lookup(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(stderr, "fpvm-bench: unknown experiment %q (try -list)\n", id)
			return 1
		}
		if i > 0 {
			fmt.Fprintln(stdout)
			fmt.Fprintln(stdout, strings.Repeat("=", 100))
			fmt.Fprintln(stdout)
		}
		start := time.Now()
		err := e.Run(experiments.Options{
			W:              stdout,
			Prec:           *prec,
			Quick:          *quick,
			Workers:        *jobs,
			MaxSequenceLen: maxSeq,
			TopSites:       *topSites,
			StormThreshold: *storm,
			JITThreshold:   jitThresh,
		})
		if err != nil {
			fmt.Fprintf(stderr, "fpvm-bench: %s: %v\n", e.ID, err)
			return 1
		}
		fmt.Fprintf(stderr, "[%s completed in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return 0
}
