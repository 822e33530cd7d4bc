// The threebody example runs the three-body workload under every
// arithmetic system FPVM supports and compares the final body positions:
// the §5.4 "effects" experiment on the second chaotic code, plus a look at
// what low-precision posits do to an N-body integration.
package main

import (
	"bytes"
	"fmt"
	"log"
	"strconv"
	"strings"

	"fpvm"
	"fpvm/internal/arith"
	"fpvm/internal/posit"
	"fpvm/internal/workloads"
)

func run(sys arith.System) ([]float64, *fpvm.VM, error) {
	w, ok := workloads.Get("Three-Body/")
	if !ok {
		return nil, nil, fmt.Errorf("workload missing")
	}
	prog, err := w.Build()
	if err != nil {
		return nil, nil, err
	}
	var out bytes.Buffer
	m, err := fpvm.NewMachine(prog, &out)
	if err != nil {
		return nil, nil, err
	}
	var vm *fpvm.VM
	if sys != nil {
		if _, err := fpvm.AnalyzeAndPatch(prog, m); err != nil {
			return nil, nil, err
		}
		vm = fpvm.Attach(m, fpvm.Config{System: sys})
	}
	if err := m.Run(0); err != nil {
		return nil, nil, err
	}
	var vals []float64
	for _, f := range strings.Fields(out.String()) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("parse %q: %w", f, err)
		}
		vals = append(vals, v)
	}
	return vals, vm, nil
}

func main() {
	systems := []struct {
		name string
		sys  arith.System
	}{
		{"native IEEE", nil},
		{"FPVM + Vanilla", arith.Vanilla{}},
		{"FPVM + MPFR 200-bit", arith.NewMPFR(200)},
		{"FPVM + MPFR 1024-bit", arith.NewMPFR(1024)},
		{"FPVM + posit<32,2>", arith.NewPosit(posit.Posit32)},
		{"FPVM + posit<16,1>", arith.NewPosit(posit.Posit16)},
	}

	fmt.Println("Three-body problem (figure-eight-like orbit), 800 Euler steps.")
	fmt.Println("Final position of body 0 under each arithmetic system:")
	fmt.Println()

	var ieee []float64
	for _, s := range systems {
		vals, vm, err := run(s.sys)
		if err != nil {
			log.Fatalf("%s: %v", s.name, err)
		}
		if len(vals) < 6 {
			log.Fatalf("%s: short output", s.name)
		}
		if s.sys == nil {
			ieee = vals
		}
		note := ""
		if vm != nil {
			note = fmt.Sprintf("  [%d traps]", vm.Stats.Traps)
		}
		dist := 0.0
		if ieee != nil {
			dx, dy := vals[0]-ieee[0], vals[1]-ieee[1]
			dist = dx*dx + dy*dy
		}
		fmt.Printf("  %-22s (%+.12f, %+.12f)  Δ²=%.3g%s\n",
			s.name, vals[0], vals[1], dist, note)
	}

	fmt.Println()
	fmt.Println("Vanilla reproduces IEEE exactly; MPFR precisions agree with each other")
	fmt.Println("but drift from IEEE (the IEEE run is the one accumulating error); the")
	fmt.Println("16-bit posit orbit disintegrates — precision matters for chaotic systems.")
}
