// fpvm-analyze runs the static value-set analysis of §4.2 on a program and
// reports its sources, sinks, and the correctness-trap patch plan — the
// angr + e9patch step of the hybrid FPVM pipeline.
//
// Usage:
//
//	fpvm-analyze -workload "Enzo"
//	fpvm-analyze prog.s
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"fpvm/internal/asm"
	"fpvm/internal/isa"
	"fpvm/internal/patch"
	"fpvm/internal/workloads"
)

func main() { os.Exit(Run(os.Args[1:], os.Stdout, os.Stderr)) }

// Run is the testable entry point: it executes the CLI with the given
// arguments and output streams and returns the process exit code. Every
// failure path — unknown workload, unreadable input file, assembly error,
// analysis error, missing arguments — returns non-zero so the tool is safe
// to use in build pipelines.
func Run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fpvm-analyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "named workload to analyze")
		verbose  = fs.Bool("v", false, "also list sources and externals")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "fpvm-analyze:", err)
		return 1
	}

	var prog *isa.Program
	var err error
	switch {
	case *workload != "":
		w, ok := workloads.Get(*workload)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *workload))
		}
		prog, err = w.Build()
	case fs.NArg() == 1:
		var src []byte
		src, err = os.ReadFile(fs.Arg(0))
		if err == nil {
			prog, err = asm.Assemble(string(src))
		}
	default:
		err = fmt.Errorf("usage: fpvm-analyze [-workload name | prog.s]")
	}
	if err != nil {
		return fail(err)
	}

	p, err := patch.Apply(prog)
	if err != nil {
		return fail(err)
	}
	p.Summary(stdout)
	if *verbose {
		fmt.Fprintln(stdout, "sources:")
		for _, s := range p.Rep.Sources {
			fmt.Fprintf(stdout, "  %#06x  %v\n", s.Addr, s.Inst)
		}
		fmt.Fprintln(stdout, "externals:")
		for _, s := range p.Rep.Externals {
			fmt.Fprintf(stdout, "  %#06x  %v\n", s.Addr, s.Inst)
		}
	}
	return 0
}
