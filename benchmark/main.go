// Command benchmark is the repository's end-to-end benchmark. It runs one
// named workload for a fixed time, checks every guest output against an
// independent reference, and prints one JSON result line last. From the
// repository root:
//
//	bash benchmark/run.sh --workload fig12_mpfr --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics from spans the benchmark records around
// its own calls into each layer. run.sh builds this command and the server
// from source. README.md describes the workloads, metrics and references.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// Workload seeds: DefaultSeed is used while a change is written; a claimed
// gain must also hold on HeldOutSeed, which is not used until then.
const (
	DefaultSeed = 1
	HeldOutSeed = 90210
)

// setupReps is how many times a batch run repeats its set-up, and
// serveSetupReps a serve_mix run; setup_s is the median. serve_mix's set-up
// takes half as long and spread wider from run to run, so it repeats more.
const (
	setupReps      = 3
	serveSetupReps = 5
)

// Paths relative to the repository root the benchmark runs from: the
// MPFR-200 expected outputs, the server run.sh builds, and where traced runs
// write their spans.
const (
	expectedDir = "benchmark/expected"
	serverBin   = ".bench_build/fpvm-serve"
	traceDir    = ".bench_build/traces"
)

type options struct {
	workload    string
	seed        int64
	seconds     float64
	trace       bool
	expectedDir string
	serverBin   string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type outcome struct {
	attempted, failed int
	metrics           map[string]metric
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		o       = options{expectedDir: expectedDir, serverBin: serverBin}
		trace   int
		seconds int
		record  bool
	)
	fs.StringVar(&o.workload, "workload", "", "workload: fig12_mpfr, fig12_vanilla or serve_mix")
	fs.Int64Var(&o.seed, "seed", DefaultSeed, fmt.Sprintf("workload seed (held-out seed: %d)", HeldOutSeed))
	fs.IntVar(&seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	fs.BoolVar(&record, "record", false, "record the MPFR-200 expected outputs and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if record {
		if err := recordExpected(o.expectedDir); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	o.seconds, o.trace = float64(seconds), trace == 1

	var out *outcome
	var err error
	switch o.workload {
	case "fig12_mpfr":
		out, err = runBatch(mpfrSeqJIT, o)
	case "fig12_vanilla":
		out, err = runBatch(vanillaPlain, o)
	case "serve_mix":
		out, err = runServe(o)
	default:
		err = fmt.Errorf("unknown --workload %q (want fig12_mpfr, fig12_vanilla or serve_mix)", o.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// recordExpected writes the MPFR-200 output of every program with an
// expected file, from plain trap-and-emulate, after checking that the plain,
// seqemu and seqemu+jit tiers agree on it.
func recordExpected(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tiers := []runConfig{
		mpfrPlain,
		{"mpfr", tier{seqLen: 16}},
		mpfrSeqJIT,
	}
	for _, name := range recordNames() {
		t0 := time.Now()
		var plain string
		for i, cfg := range tiers {
			o, err := runPipeline(named(name), cfg, nil, 0)
			if err != nil {
				return fmt.Errorf("%s %s: %w", name, cfg, err)
			}
			if i == 0 {
				plain = o.output
			} else if err := compareOutput(o.output, plain); err != nil {
				return fmt.Errorf("%s: %s disagrees with plain trap-and-emulate: %w", name, cfg, err)
			}
		}
		if err := os.WriteFile(expectedPath(dir, name), []byte(plain), 0o644); err != nil {
			return err
		}
		fmt.Printf("recorded %-28s %8d bytes, 3 tiers agree (%s)\n", name, len(plain), time.Since(t0).Round(time.Millisecond))
	}
	return nil
}
