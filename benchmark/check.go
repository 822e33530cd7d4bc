package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"fpvm"
	"fpvm/internal/oracle"
	"fpvm/internal/workloads"
)

// fig12Names lists the ten Figure 12 programs at -quick sizes (every
// registered workload except the Class A configuration), in the spelling
// fpvm-serve and the oracle accept.
func fig12Names() []string {
	var out []string
	for _, w := range workloads.All() {
		if w.Specifics == "Class A" {
			continue
		}
		name := w.Name
		if w.Specifics != "" {
			name += "/" + w.Specifics
		}
		out = append(out, name)
	}
	return out
}

// unreproducible lists programs whose guest input differs from one process
// to the next, so no checked-in output can match them: NAS CG sums its matrix
// diagonal over a Go map in random iteration order (README.md, known
// defect 3). Their MPFR-200 reference is a plain trap-and-emulate run
// of the same program in the benchmark's own process, and serve_mix leaves
// them out, since the server builds its own copy.
var unreproducible = map[string]bool{"NAS CG/Class S": true}

// recordNames is every program with an MPFR-200 expected-output file: the
// Figure 12 programs and the bundled examples.
func recordNames() []string {
	names := fig12Names()
	for _, t := range oracle.ExampleTargets() {
		names = append(names, strings.TrimPrefix(t.Name, "example:"))
	}
	var out []string
	for _, n := range names {
		if !unreproducible[n] {
			out = append(out, n)
		}
	}
	return out
}

func buildNamed(name string) (*fpvm.Program, error) {
	t, err := oracle.Lookup(name)
	if err != nil {
		return nil, err
	}
	return t.Build()
}

// named is the builder of a bundled program.
func named(name string) func() (*fpvm.Program, error) {
	return func() (*fpvm.Program, error) { return buildNamed(name) }
}

// native runs a program on the machine without FPVM: the reference every
// Vanilla output must equal bit for bit, and the base of modeled_slowdown.
type native struct {
	output string
	cycles uint64
}

func runNative(prog *fpvm.Program) (native, error) {
	var out bytes.Buffer
	m, err := fpvm.NewMachine(prog, &out)
	if err != nil {
		return native{}, err
	}
	if err := m.Run(0); err != nil {
		return native{}, fmt.Errorf("native run: %w", err)
	}
	return native{output: out.String(), cycles: m.Cycles}, nil
}

// expectedPath is the checked-in MPFR-200 output of a program.
func expectedPath(dir, name string) string {
	slug := strings.Map(func(r rune) rune {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '-' {
			return r
		}
		return '_'
	}, name)
	return filepath.Join(dir, slug+".mpfr200.txt")
}

func loadExpected(dir, name string) (string, error) {
	b, err := os.ReadFile(expectedPath(dir, name))
	if err != nil {
		return "", fmt.Errorf("expected output of %s: %w", name, err)
	}
	return string(b), nil
}

// compareOutput returns nil when got equals want byte for byte, else an
// error naming the first line that differs.
func compareOutput(got, want string) error {
	if got == want {
		return nil
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w || i >= len(gl) || i >= len(wl) {
			return fmt.Errorf("output differs from reference at line %d: got %q, want %q", i+1, clip(g), clip(w))
		}
	}
	return fmt.Errorf("output differs from reference (%d bytes, want %d)", len(got), len(want))
}

func clip(s string) string {
	if len(s) > 48 {
		return s[:48] + "…"
	}
	return s
}

// failures prints each failed operation with its program, configuration and
// seed, up to a limit, and counts them all.
type failures struct {
	n    int
	seed int64
}

func (f *failures) add(program, config string, err error) {
	f.n++
	if f.n <= 20 {
		fmt.Fprintf(os.Stderr, "FAIL program=%q config=%s seed=%d: %v\n", program, config, f.seed, err)
	}
}
