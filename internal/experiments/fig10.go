package experiments

import (
	"fmt"

	"fpvm/internal/arith"
	"fpvm/internal/workloads"
)

// Fig10Row reports garbage collector behavior for one benchmark.
type Fig10Row struct {
	Name      string
	Passes    uint64
	Alive     int     // live shadow values after the final pass
	Freed     uint64  // total shadow values reclaimed
	Allocs    uint64  // total shadow values allocated
	LatencyUs float64 // modeled latency of a pass in microseconds
	FreedFrac float64 // fraction of allocations reclaimed
}

// cyclesPerUs converts modeled cycles to microseconds at the R815's 2.1 GHz.
const cyclesPerUs = 2100.0

// Fig10Data measures GC statistics across the Figure 10 codes.
func Fig10Data(o Options) ([]Fig10Row, error) {
	o.defaults()
	if o.VM.GCEveryNAllocs == 0 {
		o.VM.GCEveryNAllocs = 20_000 // epoch small enough that every code collects
	}
	ws, err := selectWorkloads(fig9Workloads)
	if err != nil {
		return nil, err
	}
	return forEachWorkload(o.Workers, ws, func(w workloads.Workload, img *cellImage) (Fig10Row, error) {
		r, err := runPair(w, img, arith.NewMPFR(o.Prec), o)
		if err != nil {
			return Fig10Row{}, err
		}
		r.VM.RunGC() // final pass so the tail of allocations is accounted
		gs := r.VM.Stats.GC
		allocs := r.VM.Arena.Allocs()
		row := Fig10Row{
			Name:      w.Name,
			Passes:    gs.Passes,
			Alive:     gs.LastAlive,
			Freed:     gs.TotalFreed,
			Allocs:    allocs,
			LatencyUs: float64(gs.LastCycles) / cyclesPerUs,
		}
		if allocs > 0 {
			row.FreedFrac = float64(gs.TotalFreed) / float64(allocs)
		}
		return row, nil
	})
}

// Fig10 prints garbage collector statistics and performance (paper
// Figure 10: >95% of shadow values are collected on each pass; latency is
// second-order relative to delivery and emulation).
func Fig10(o Options) error {
	o.defaults()
	if o.VM.GCEveryNAllocs == 0 {
		o.VM.GCEveryNAllocs = 20_000
	}
	rows, err := Fig10Data(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.W, "Figure 10: Garbage collector statistics (MPFR %d-bit, epoch=%d allocs)\n",
		o.Prec, o.VM.GCEveryNAllocs)
	fmt.Fprintf(o.W, "%-18s %7s %9s %10s %10s %10s %10s\n",
		"benchmark", "passes", "alive", "freed", "allocs", "freed%", "latency(us)")
	for _, r := range rows {
		fmt.Fprintf(o.W, "%-18s %7d %9d %10d %10d %9.1f%% %10.1f\n",
			r.Name, r.Passes, r.Alive, r.Freed, r.Allocs, 100*r.FreedFrac, r.LatencyUs)
	}
	return nil
}
