package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// SiteRank is one row of the hot-site ranking, in exportable form: the
// FlowFPX-style "where do the exceptions come from" record that fpvm-bench
// -json embeds and fpvm-run -topsites renders as a table.
type SiteRank struct {
	PC           uint64  `json:"pc"`
	Op           string  `json:"op"`
	Traps        uint64  `json:"traps"`
	CorrectTraps uint64  `json:"correct_traps,omitempty"`
	ExtTraps     uint64  `json:"ext_traps,omitempty"`
	Cycles       uint64  `json:"cycles"`
	Coalesced    uint64  `json:"coalesced,omitempty"`
	MeanRun      float64 `json:"mean_run,omitempty"`
	MaxRun       int     `json:"max_run,omitempty"`
	Flags        string  `json:"flags,omitempty"`
	Degradations uint64  `json:"degradations,omitempty"`

	// Trace-JIT attribution for superblocks rooted at this PC.
	SBCompiles uint64 `json:"sb_compiles,omitempty"`
	SBHits     uint64 `json:"sb_hits,omitempty"`
	SBRetired  uint64 `json:"sb_retired,omitempty"`

	// Numerical-sanitizer attribution (present when a sanitizer ran).
	SanSamples uint64  `json:"san_samples,omitempty"`
	SanFlagged bool    `json:"san_flagged,omitempty"`
	SanMaxLost float64 `json:"san_max_lost_bits,omitempty"`
}

// TopSites returns the n hottest trap sites ranked by attributed modeled
// cycles (ties broken by PC for stable output). n <= 0 returns every site
// with at least one delivery.
func (c *Collector) TopSites(n int) []SiteRank {
	var out []SiteRank
	for i := range c.sites {
		s := &c.sites[i]
		if s.Traps == 0 && s.CorrectTraps == 0 && s.ExtTraps == 0 && s.Degradations == 0 {
			continue
		}
		r := SiteRank{
			PC:           s.PC,
			Op:           s.Op.String(),
			Traps:        s.Traps,
			CorrectTraps: s.CorrectTraps,
			ExtTraps:     s.ExtTraps,
			Cycles:       s.Cycles,
			Coalesced:    s.Coalesced,
			MaxRun:       s.MaxRun,
			Degradations: s.Degradations,

			SBCompiles: s.SBCompiles,
			SBHits:     s.SBHits,
			SBRetired:  s.SBRetired,

			SanSamples: s.SanSamples,
			SanFlagged: s.SanFlagged,
			SanMaxLost: s.SanMaxLost,
		}
		if s.Traps > 0 {
			r.MeanRun = s.MeanRun()
			r.Flags = s.Flags.String()
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].PC < out[j].PC
	})
	if n > 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

// WriteTopSites renders the hot-site ranking and exception-flow summary as a
// FlowFPX-style coverage report: one row per site with its trap counts, the
// share of all attributed delivery cycles, and the exception classes seen
// there.
func (c *Collector) WriteTopSites(w io.Writer, n int) {
	all := c.TopSites(0)
	var totalCycles, totalTraps uint64
	for _, s := range all {
		totalCycles += s.Cycles
		totalTraps += s.Traps + s.CorrectTraps + s.ExtTraps
	}
	rows := all
	if n > 0 && n < len(rows) {
		rows = rows[:n]
	}
	fmt.Fprintf(w, "trap telemetry: %d sites, %d deliveries, %d attributed cycles\n",
		len(all), totalTraps, totalCycles)
	fmt.Fprintf(w, "%-8s %-10s %10s %8s %6s %12s %6s %8s %6s  %s\n",
		"pc", "op", "fp", "correct", "ext", "cycles", "cyc%", "meanrun", "max", "flags")
	for _, s := range rows {
		pct := 0.0
		if totalCycles > 0 {
			pct = 100 * float64(s.Cycles) / float64(totalCycles)
		}
		meanRun := "-"
		if s.Traps > 0 {
			meanRun = fmt.Sprintf("%.2f", s.MeanRun)
		}
		fmt.Fprintf(w, "%#08x %-10s %10d %8d %6d %12d %5.1f%% %8s %6d  %s\n",
			s.PC, s.Op, s.Traps, s.CorrectTraps, s.ExtTraps,
			s.Cycles, pct, meanRun, s.MaxRun, s.Flags)
	}
	if dropped := c.ring.Dropped(); dropped > 0 {
		fmt.Fprintf(w, "(ring retained the newest %d of %d events; %d overwritten)\n",
			c.ring.Len(), c.ring.Total(), dropped)
	}
}

// jsonEvent is the JSONL wire form of one Event.
type jsonEvent struct {
	Ev     string `json:"ev"`
	Cause  string `json:"cause,omitempty"`
	PC     uint64 `json:"pc"`
	Idx    int32  `json:"idx"`
	Op     string `json:"op,omitempty"`
	Flags  string `json:"flags,omitempty"`
	Cycles uint64 `json:"cycles"`
	Arg    uint64 `json:"arg,omitempty"`
	Aux    uint64 `json:"aux,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// WriteJSONL drains a snapshot of the ring to w as one JSON object per line,
// oldest event first — the `fpvm-run -trace out.jsonl` format. The header
// line carries the overflow accounting so consumers can tell a complete
// trace from a retained window.
func (c *Collector) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	head := struct {
		Ev      string `json:"ev"`
		Total   uint64 `json:"total_events"`
		Kept    int    `json:"retained_events"`
		Dropped uint64 `json:"overwritten_events"`
		Cap     int    `json:"ring_capacity"`
	}{"trace-header", c.ring.Total(), c.ring.Len(), c.ring.Dropped(), c.ring.Cap()}
	if err := enc.Encode(head); err != nil {
		return err
	}
	for _, ev := range c.ring.Snapshot() {
		je := jsonEvent{
			Ev:     ev.Kind.String(),
			Cause:  ev.Cause.String(),
			PC:     ev.PC,
			Idx:    ev.Idx,
			Cycles: ev.Cycles,
			Arg:    ev.Arg,
			Aux:    ev.Aux,
		}
		if ev.Op != 0 {
			je.Op = ev.Op.String()
		}
		if ev.Flags != 0 {
			je.Flags = ev.Flags.String()
		}
		if ev.Kind == EvDegrade {
			je.Detail = DegradeCause(ev.Arg).String()
		}
		if err := enc.Encode(je); err != nil {
			return err
		}
	}
	return nil
}
