package experiments

import (
	"fmt"
	"strings"

	"fpvm/internal/arith"
	"fpvm/internal/workloads"
)

// EffectsRow compares final outputs across arithmetic systems for one
// chaos-sensitive benchmark.
type EffectsRow struct {
	Name        string
	NativeOut   string
	VanillaSame bool
	MPFROut     string
	MPFRDiffers bool
	Prec        uint
}

// EffectsData applies FPVM to the chaotic codes where higher precision
// should change the answer (§5.4): Lorenz and Three-Body.
func EffectsData(o Options) ([]EffectsRow, error) {
	o.defaults()
	ws, err := selectWorkloads([]string{"Lorenz Attractor/", "Three-Body/"})
	if err != nil {
		return nil, err
	}
	return forEachWorkload(o.Workers, ws, func(w workloads.Workload, img *cellImage) (EffectsRow, error) {
		van, err := runPair(w, img, arith.Vanilla{}, o)
		if err != nil {
			return EffectsRow{}, err
		}
		mp, err := runPair(w, img, arith.NewMPFR(o.Prec), o)
		if err != nil {
			return EffectsRow{}, err
		}
		return EffectsRow{
			Name:        w.Name,
			NativeOut:   van.NativeOut,
			VanillaSame: van.NativeOut == van.VirtOut,
			MPFROut:     mp.VirtOut,
			MPFRDiffers: mp.VirtOut != mp.NativeOut,
			Prec:        o.Prec,
		}, nil
	})
}

// Effects prints the §5.4 summary: Vanilla changes nothing; MPFR, with its
// different rounding events, changes chaotic trajectories.
func Effects(o Options) error {
	o.defaults()
	rows, err := EffectsData(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.W, "§5.4 Effects of alternative arithmetic (MPFR %d-bit)\n", o.Prec)
	for _, r := range rows {
		fmt.Fprintf(o.W, "\n%s:\n", r.Name)
		fmt.Fprintf(o.W, "  FPVM+Vanilla identical to IEEE: %v\n", r.VanillaSame)
		fmt.Fprintf(o.W, "  FPVM+MPFR changes the result:   %v\n", r.MPFRDiffers)
		fmt.Fprintf(o.W, "  final values IEEE: %s\n", lastLine(r.NativeOut, 3))
		fmt.Fprintf(o.W, "  final values MPFR: %s\n", lastLine(r.MPFROut, 3))
	}
	return nil
}

func lastLine(s string, n int) string {
	lines := strings.Fields(strings.TrimSpace(s))
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, ", ")
}
