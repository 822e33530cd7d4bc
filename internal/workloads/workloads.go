// Package workloads provides the benchmark programs of the paper's
// evaluation (§5.1), rewritten for the simulator's ISA: the FBench floating
// point benchmark, a Lorenz system simulator, a three-body problem
// simulation, selections from the NAS benchmarks (IS, EP, CG, MG, LU in
// class-S-like sizes), a miniAero-like compressible-flow stencil, and an
// Enzo-like adaptive-mesh hydro toy. Each preserves the arithmetic character
// that drives its row of Figure 12: trig-heavy FBench, chaotic Lorenz and
// three-body, sparse gather CG, stencil MG/miniAero, dense-solve LU,
// integer-dominated IS, and Enzo's interleaved int/double structs that
// defeat the static analysis (§5.3).
package workloads

import (
	"fmt"
	"sort"
	"strconv"

	"fpvm/internal/asm"
	"fpvm/internal/isa"
)

// Workload is one benchmark program.
type Workload struct {
	// Name matches the paper's Figure 12 row label.
	Name string
	// Specifics matches Figure 12's "Specifics" column (class, scenario).
	Specifics string
	// Description summarizes the arithmetic character.
	Description string
	// Build assembles the program.
	Build func() (*isa.Program, error)
}

// registry holds all workloads keyed by name.
var registry = map[string]Workload{}

func register(w Workload) { registry[w.Name+"/"+w.Specifics] = w }

// All returns every workload in the paper's Figure 12 order.
func All() []Workload {
	order := []string{
		"FBench/", "Lorenz Attractor/", "Three-Body/", "miniAero/Flat Plate",
		"NAS IS/Class S", "NAS EP/Class S", "NAS CG/Class S", "NAS CG/Class A",
		"NAS MG/Class S", "NAS LU/Class S", "Enzo/Cosmology Sim.",
	}
	var out []Workload
	for _, k := range order {
		if w, ok := registry[k]; ok {
			out = append(out, w)
		}
	}
	// Append any extras not in the canonical order.
	var extra []string
	for k := range registry {
		found := false
		for _, o := range order {
			if k == o {
				found = true
			}
		}
		if !found {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		out = append(out, registry[k])
	}
	return out
}

// Get returns a workload by name (and optional specifics after "/").
func Get(key string) (Workload, bool) {
	if w, ok := registry[key]; ok {
		return w, true
	}
	for k, w := range registry {
		if k == key+"/" {
			return w, true
		}
	}
	return Workload{}, false
}

// Names lists the registry keys.
func Names() []string {
	var out []string
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// sources holds each workload's assembly text by the short name buildSrc
// was given, so a test can pin the text every workload assembles.
var sources = map[string]string{}

// buildSrc assembles a source string, wrapping errors with the workload name.
func buildSrc(name, src string) func() (*isa.Program, error) {
	sources[name] = src
	return func() (*isa.Program, error) {
		p, err := asm.Assemble(src)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", name, err)
		}
		return p, nil
	}
}

// f64Data renders float64 values as a .f64 data directive block.
func f64Data(label string, vals []float64) string {
	return dataBlock(label, ".f64", 8, len(vals), func(b []byte, j int) []byte {
		return strconv.AppendFloat(b, vals[j], 'g', 17, 64)
	})
}

// i64Data renders int64 values as a .i64 data directive block.
func i64Data(label string, vals []int64) string {
	return dataBlock(label, ".i64", 12, len(vals), func(b []byte, j int) []byte {
		return strconv.AppendInt(b, vals[j], 10)
	})
}

// dataBlock renders n values as a data directive block under label,
// perLine values to a directive, each appended by value. It writes into one
// growing buffer: a string concatenated per value would be copied once per
// value, quadratic in the block's size.
func dataBlock(label, directive string, perLine, n int, value func(b []byte, j int) []byte) string {
	b := append(make([]byte, 0, len(label)+2+n*24), label...)
	b = append(b, ":\n"...)
	for i := 0; i < n; i += perLine {
		b = append(b, '\t')
		b = append(b, directive...)
		b = append(b, ' ')
		for j := i; j < min(i+perLine, n); j++ {
			if j > i {
				b = append(b, ", "...)
			}
			b = value(b, j)
		}
		b = append(b, '\n')
	}
	return string(b)
}

// lcg is the deterministic generator used to synthesize workload data
// (standing in for the NAS pseudorandom sequences).
type lcg struct{ state uint64 }

func newLCG(seed uint64) *lcg { return &lcg{state: seed} }

func (g *lcg) next() uint64 {
	g.state = g.state*6364136223846793005 + 1442695040888963407
	return g.state
}

// float64n returns a float in [0, 1).
func (g *lcg) float64n() float64 {
	return float64(g.next()>>11) / float64(1<<53)
}
