package fpvm

import (
	"fmt"
	"io"
	"sort"

	"fpvm/internal/machine"
)

// Spy is the FPSpy mode of the runtime: the paper's predecessor tool whose
// machinery FPVM reuses (§4.1). Where FPVM emulates a faulting instruction
// in alternative arithmetic, FPSpy merely *records* the event — which flags
// fired, at which instruction — and then lets the instruction execute as
// normal, producing the IEEE-masked result. It answers "where does this
// binary round/overflow/eat NaNs?" without changing a single output bit.
type Spy struct {
	M     *machine.Machine
	Stats SpyStats
}

// SpyStats aggregates the recorded floating point events.
type SpyStats struct {
	Events   uint64            // total trapped events
	ByFlag   map[string]uint64 // counts per flag combination
	ByOp     map[string]uint64 // counts per operation mnemonic
	BySite   map[uint64]uint64 // counts per instruction address
	Executed uint64            // events re-executed natively
}

// AttachSpy installs FPSpy on the machine: every MXCSR exception is
// unmasked, and each trap is recorded and then retired with its IEEE
// result. Outputs are bit-identical to an untraced run.
func AttachSpy(m *machine.Machine) *Spy {
	s := &Spy{M: m}
	s.Stats.ByFlag = make(map[string]uint64)
	s.Stats.ByOp = make(map[string]uint64)
	s.Stats.BySite = make(map[uint64]uint64)
	m.MXCSR.SetMasks(0)
	m.FPTrap = s.handle
	return s
}

// handle records the event and completes the faulting instruction with its
// masked IEEE semantics ("allowing it to be executed as normal"): the
// machine's masked native retire, the same one the degrade engine uses, so
// the result is the one the hardware would have produced had FPSpy not
// unmasked the exception.
func (s *Spy) handle(f *machine.TrapFrame) error {
	s.Stats.Events++
	s.Stats.ByFlag[f.Flags.String()]++
	s.Stats.ByOp[f.Inst.Op.String()]++
	s.Stats.BySite[f.Inst.Addr]++
	f.M.MXCSR.ClearFlags()
	if err := f.M.ExecMasked(f.Idx); err != nil {
		return err
	}
	s.Stats.Executed++
	return nil
}

// Report writes an FPSpy-style summary: event totals by flag, by operation,
// and the hottest instruction sites.
func (s *Spy) Report(w io.Writer, topSites int) {
	fmt.Fprintf(w, "FPSpy: %d floating point events observed\n", s.Stats.Events)
	fmt.Fprintln(w, "by condition:")
	for _, k := range sortedCountKeys(s.Stats.ByFlag) {
		fmt.Fprintf(w, "  %-14s %10d\n", k, s.Stats.ByFlag[k])
	}
	fmt.Fprintln(w, "by operation:")
	for _, k := range sortedCountKeys(s.Stats.ByOp) {
		fmt.Fprintf(w, "  %-14s %10d\n", k, s.Stats.ByOp[k])
	}
	type site struct {
		addr uint64
		n    uint64
	}
	var sites []site
	for a, n := range s.Stats.BySite {
		sites = append(sites, site{a, n})
	}
	// Most events first; ties by address, so the report does not depend on
	// map iteration order.
	sort.Slice(sites, func(i, j int) bool {
		if sites[i].n != sites[j].n {
			return sites[i].n > sites[j].n
		}
		return sites[i].addr < sites[j].addr
	})
	if topSites > len(sites) {
		topSites = len(sites)
	}
	fmt.Fprintf(w, "hottest %d sites:\n", topSites)
	for _, st := range sites[:topSites] {
		in, _ := s.M.InstAt(st.addr)
		fmt.Fprintf(w, "  %#06x  %-28v %10d\n", st.addr, in, st.n)
	}
}

// sortedCountKeys returns m's keys by descending count, ties by name.
func sortedCountKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if m[keys[i]] != m[keys[j]] {
			return m[keys[i]] > m[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}
