package experiments

import (
	"testing"

	"fpvm/internal/arith"
	"fpvm/internal/posit"
)

// TestSeedIdenticalCycles pins the simulated cycle counts and trap statistics
// of one workload per arithmetic system to the values produced by the seed
// (map-keyed) execution pipeline. The dense predecoded pipeline and the
// parallel experiment harness are pure mechanism changes: any drift in these
// numbers is a modeling regression, not noise — the cycle model is fully
// deterministic.
func TestSeedIdenticalCycles(t *testing.T) {
	cases := []struct {
		workload     string
		sysName      string
		sys          arith.System
		virtCycles   uint64
		instructions uint64
		fpTraps      uint64
		correctTraps uint64
		vmTraps      uint64
		vmEmulated   uint64
	}{
		{"Lorenz Attractor/", "vanilla", arith.Vanilla{}, 335941605, 85006, 34990, 0, 34990, 34990},
		{"FBench/", "mpfr200", arith.NewMPFR(200), 195757021, 21404, 11200, 0, 11200, 11200},
		{"Three-Body/", "adaptive", arith.NewAdaptiveMPFR(64, 3200), 529362450, 160824, 55194, 0, 55194, 55194},
		{"NAS CG/Class S", "posit32", arith.NewPosit(posit.Posit32), 474815750, 289318, 47164, 0, 47164, 47164},
		{"NAS MG/Class S", "interval", arith.IntervalSystem{}, 953250884, 218750, 99918, 0, 99918, 99918},
		{"NAS EP/Class S", "bfloat16", arith.BFloat16System{}, 360699834, 122659, 37850, 0, 37850, 37850},
		{"Enzo/Cosmology Sim.", "mpfr200", arith.NewMPFR(200), 528639079, 140480, 49779, 4960, 49779, 49779},
	}
	for _, c := range cases {
		c := c
		t.Run(c.workload+"/"+c.sysName, func(t *testing.T) {
			t.Parallel()
			w, err := selectWorkloads([]string{c.workload})
			if err != nil {
				t.Fatal(err)
			}
			img, err := workloadImage(w[0])
			if err != nil {
				t.Fatal(err)
			}
			r, err := runPair(w[0], img, c.sys, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if r.VirtCycles != c.virtCycles {
				t.Errorf("VirtCycles = %d, seed %d", r.VirtCycles, c.virtCycles)
			}
			if got := r.Virt.Stats.Instructions; got != c.instructions {
				t.Errorf("Instructions = %d, seed %d", got, c.instructions)
			}
			if got := r.Virt.Stats.FPTraps; got != c.fpTraps {
				t.Errorf("FPTraps = %d, seed %d", got, c.fpTraps)
			}
			if got := r.Virt.Stats.CorrectTraps; got != c.correctTraps {
				t.Errorf("CorrectTraps = %d, seed %d", got, c.correctTraps)
			}
			if got := r.VM.Stats.Traps; got != c.vmTraps {
				t.Errorf("VM.Stats.Traps = %d, seed %d", got, c.vmTraps)
			}
			if got := r.VM.Stats.Emulated; got != c.vmEmulated {
				t.Errorf("VM.Stats.Emulated = %d, seed %d", got, c.vmEmulated)
			}
		})
	}
}
