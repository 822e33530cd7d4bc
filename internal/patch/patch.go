// Package patch turns a VSA report into the correctness traps of §4.2: the
// e9patch analog. Each sink instruction is registered as a correctness site
// so that the machine delivers a trap to FPVM immediately before executing
// it; FPVM demotes any NaN-boxed operand in place and the instruction is
// then re-executed natively — the paper's "explicitly trap to FPVM ... and
// re-execute the instruction by using the x64's trap mode to do single
// instruction stepping".
package patch

import (
	"fmt"
	"io"

	"fpvm/internal/isa"
	"fpvm/internal/machine"
	"fpvm/internal/vsa"
)

// Patched bundles a program with its correctness-site table.
type Patched struct {
	Prog  *isa.Program
	Sites map[uint64]int64 // instruction address → site id
	Rep   *vsa.Report
}

// Apply analyzes prog (if rep is nil) and produces the patched image.
func Apply(prog *isa.Program, rep *vsa.Report) (*Patched, error) {
	if rep == nil {
		var err error
		rep, err = vsa.Analyze(prog, 0)
		if err != nil {
			return nil, err
		}
	}
	p := &Patched{
		Prog:  prog,
		Sites: make(map[uint64]int64, len(rep.Sinks)),
		Rep:   rep,
	}
	for i, s := range rep.Sinks {
		p.Sites[s.Addr] = int64(i + 1)
	}
	return p, nil
}

// NewImage analyzes prog and predecodes it into an immutable machine image
// that carries the resulting correctness-site table — the ahead-of-time half
// of the pipeline, run once per program. The image keeps the site table, not
// the rest of the VSA report.
func NewImage(prog *isa.Program) (*machine.Image, error) {
	p, err := Apply(prog, nil)
	if err != nil {
		return nil, err
	}
	return machine.NewImage(prog, p.Sites)
}

// Install loads the correctness sites into a machine running the program,
// populating the machine's per-instruction side-table slots.
func (p *Patched) Install(m *machine.Machine) {
	for addr, site := range p.Sites {
		m.SetCorrectnessSite(addr, site)
	}
}

// Summary writes a human-readable report of what was patched.
func (p *Patched) Summary(w io.Writer) {
	fmt.Fprintf(w, "static analysis: %d instructions, %d fixpoint steps\n",
		p.Rep.Insts, p.Rep.Iterations)
	fmt.Fprintf(w, "  sources (FP stores):     %d\n", len(p.Rep.Sources))
	fmt.Fprintf(w, "  sinks (correctness traps): %d\n", len(p.Rep.Sinks))
	fmt.Fprintf(w, "  external call sites:     %d\n", len(p.Rep.Externals))
	fmt.Fprintf(w, "  tainted intervals:       %d (imprecise=%v)\n",
		p.Rep.TaintedIvs, p.Rep.Imprecise)
	for _, s := range p.Rep.Sinks {
		fmt.Fprintf(w, "    %#06x  %-28v  %s\n", s.Addr, s.Inst, s.Reason)
	}
}
