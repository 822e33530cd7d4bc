// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5), one testing.B benchmark per artifact, plus ablations of the design
// choices DESIGN.md calls out. Custom metrics carry the paper's quantities
// (cycles/trap, slowdown factors) alongside Go's ns/op.
//
// Run:  go test -bench=. -benchmem
package fpvm_test

import (
	"bytes"
	"io"
	"math"
	"testing"

	"fpvm/internal/arith"
	"fpvm/internal/asm"
	"fpvm/internal/experiments"
	"fpvm/internal/fpvm"
	"fpvm/internal/machine"
	"fpvm/internal/mpfr"
	"fpvm/internal/patch"
	"fpvm/internal/posit"
	"fpvm/internal/trap"
	"fpvm/internal/workloads"
)

// runUnder executes a workload under FPVM with the given system and returns
// the machine and VM for metric extraction.
func runUnder(b *testing.B, key string, sys arith.System, cfg fpvm.Config) (*machine.Machine, *fpvm.VM) {
	b.Helper()
	w, ok := workloads.Get(key)
	if !ok {
		b.Fatalf("unknown workload %s", key)
	}
	prog, err := w.Build()
	if err != nil {
		b.Fatal(err)
	}
	m, err := machine.New(prog, io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	if sys != nil {
		p, err := patch.Apply(prog, nil)
		if err != nil {
			b.Fatal(err)
		}
		p.Install(m)
		cfg.System = sys
		fv := fpvm.Attach(m, cfg)
		if err := m.Run(0); err != nil {
			b.Fatal(err)
		}
		return m, fv
	}
	if err := m.Run(0); err != nil {
		b.Fatal(err)
	}
	return m, nil
}

// BenchmarkFig9VirtualizationCost measures the average cost of virtualizing
// one floating point instruction (Figure 9), reporting cycles/trap.
func BenchmarkFig9VirtualizationCost(b *testing.B) {
	for _, key := range []string{"Lorenz Attractor/", "FBench/", "NAS CG/Class S"} {
		b.Run(key, func(b *testing.B) {
			var perTrap float64
			for i := 0; i < b.N; i++ {
				m, vm := runUnder(b, key, arith.NewMPFR(200), fpvm.Config{})
				c := vm.Stats.Cycles
				total := m.Stats.Trap.TotalCycles() + c.Decode + c.Bind + c.Emulate + c.GC + c.Correctness
				perTrap = float64(total) / float64(vm.Stats.Traps)
			}
			b.ReportMetric(perTrap, "cycles/trap")
		})
	}
}

// BenchmarkFig10GC measures a garbage collection pass over a populated
// machine (Figure 10), reporting shadow values freed per pass.
func BenchmarkFig10GC(b *testing.B) {
	prog, err := asm.Assemble(workloads.LorenzSource(400, 400, 0.02))
	if err != nil {
		b.Fatal(err)
	}
	m, err := machine.New(prog, io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	vm := fpvm.Attach(m, fpvm.Config{System: arith.Vanilla{}, GCEveryNAllocs: math.MaxUint64})
	if err := m.Run(0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm.RunGC()
	}
	b.ReportMetric(float64(vm.Stats.GC.LastAlive), "alive")
	b.ReportMetric(float64(vm.Stats.GC.LastCycles), "cycles/pass")
}

// BenchmarkFig11MPFRPrecision measures this repository's MPFR operations as
// a function of precision (Figure 11).
func BenchmarkFig11MPFRPrecision(b *testing.B) {
	for _, prec := range []uint{64, 200, 1024, 8192} {
		x, y, z := mpfr.New(prec), mpfr.New(prec), mpfr.New(prec)
		x.SetUint64(2, mpfr.RoundNearestEven)
		x.Sqrt(x, mpfr.RoundNearestEven)
		y.SetUint64(3, mpfr.RoundNearestEven)
		y.Sqrt(y, mpfr.RoundNearestEven)
		b.Run(name("add", prec), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				z.Add(x, y, mpfr.RoundNearestEven)
			}
		})
		b.Run(name("mul", prec), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				z.Mul(x, y, mpfr.RoundNearestEven)
			}
		})
		b.Run(name("div", prec), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				z.Div(x, y, mpfr.RoundNearestEven)
			}
		})
	}
}

func name(op string, prec uint) string {
	return op + "/" + itoa(prec) + "bit"
}

func itoa(v uint) string {
	if v == 0 {
		return "0"
	}
	var d []byte
	for v > 0 {
		d = append([]byte{byte('0' + v%10)}, d...)
		v /= 10
	}
	return string(d)
}

// BenchmarkFig12Slowdowns runs each benchmark natively and under FPVM+MPFR
// and reports the cycle-count slowdown (Figure 12, R815 column).
func BenchmarkFig12Slowdowns(b *testing.B) {
	keys := []string{"FBench/", "Lorenz Attractor/", "Three-Body/",
		"NAS IS/Class S", "NAS EP/Class S", "NAS CG/Class S",
		"NAS MG/Class S", "NAS LU/Class S", "Enzo/Cosmology Sim.",
		"miniAero/Flat Plate"}
	for _, key := range keys {
		b.Run(key, func(b *testing.B) {
			var slowdown float64
			for i := 0; i < b.N; i++ {
				native, _ := runUnder(b, key, nil, fpvm.Config{})
				virt, _ := runUnder(b, key, arith.NewMPFR(200), fpvm.Config{})
				slowdown = float64(virt.Cycles) / float64(native.Cycles)
			}
			b.ReportMetric(slowdown, "slowdown-x")
		})
	}
}

// BenchmarkFig13Lorenz regenerates the Figure 13 divergence data.
func BenchmarkFig13Lorenz(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig13Data(experiments.Options{W: io.Discard})
		if err != nil {
			b.Fatal(err)
		}
		if res.DivergenceStep < 0 {
			b.Fatal("no divergence")
		}
	}
}

// BenchmarkFig14TrapDelivery reports the modeled delivery round trips of
// the three machine profiles and three delivery kinds (Figure 14 / §6).
func BenchmarkFig14TrapDelivery(b *testing.B) {
	for _, p := range trap.Profiles() {
		b.Run(p.Name, func(b *testing.B) {
			var u, k, u2 uint64
			for i := 0; i < b.N; i++ {
				u = p.RoundTripCycles(trap.DeliverUserSignal)
				k = p.RoundTripCycles(trap.DeliverKernel)
				u2 = p.RoundTripCycles(trap.DeliverUserToUser)
			}
			b.ReportMetric(float64(u), "user-cycles")
			b.ReportMetric(float64(k), "kernel-cycles")
			b.ReportMetric(float64(u2), "u2u-cycles")
		})
	}
}

// BenchmarkTrapAndPatch compares §3.2's two virtualization mechanisms on a
// workload where every FP op rounds (trap-and-patch should win).
func BenchmarkTrapAndPatch(b *testing.B) {
	src := workloads.LorenzSource(300, 300, 0.02)
	run := func(b *testing.B, patchMode bool) uint64 {
		prog, err := asm.Assemble(src)
		if err != nil {
			b.Fatal(err)
		}
		m, err := machine.New(prog, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		vm := fpvm.Attach(m, fpvm.Config{System: arith.Vanilla{}})
		if patchMode {
			vm.PatchAllFPArith()
		}
		if err := m.Run(0); err != nil {
			b.Fatal(err)
		}
		return m.Cycles
	}
	b.Run("trap-and-emulate", func(b *testing.B) {
		var c uint64
		for i := 0; i < b.N; i++ {
			c = run(b, false)
		}
		b.ReportMetric(float64(c), "sim-cycles")
	})
	b.Run("trap-and-patch", func(b *testing.B) {
		var c uint64
		for i := 0; i < b.N; i++ {
			c = run(b, true)
		}
		b.ReportMetric(float64(c), "sim-cycles")
	})
}

// BenchmarkAblationGCEpoch sweeps the garbage collection epoch (allocation
// budget between passes): frequent GC costs scan time, infrequent GC costs
// memory.
func BenchmarkAblationGCEpoch(b *testing.B) {
	for _, epoch := range []uint64{2_000, 20_000, 200_000} {
		b.Run("epoch-"+itoa(uint(epoch)), func(b *testing.B) {
			var gcCycles float64
			var live int
			for i := 0; i < b.N; i++ {
				_, vm := runUnder(b, "Three-Body/", arith.Vanilla{},
					fpvm.Config{GCEveryNAllocs: epoch})
				gcCycles = float64(vm.Stats.Cycles.GC)
				live = vm.Arena.Live()
			}
			b.ReportMetric(gcCycles, "gc-cycles")
			b.ReportMetric(float64(live), "final-live")
		})
	}
}

// BenchmarkAblationDelivery sweeps the §6 delivery models on an FP-dense
// workload, reporting the whole-program slowdown under each.
func BenchmarkAblationDelivery(b *testing.B) {
	kinds := []struct {
		name string
		k    trap.Kind
	}{
		{"user-signal", trap.DeliverUserSignal},
		{"kernel", trap.DeliverKernel},
		{"user-to-user", trap.DeliverUserToUser},
	}
	w, _ := workloads.Get("NAS MG/Class S")
	prog, err := w.Build()
	if err != nil {
		b.Fatal(err)
	}
	nm, err := machine.New(prog, io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	if err := nm.Run(0); err != nil {
		b.Fatal(err)
	}
	for _, kind := range kinds {
		b.Run(kind.name, func(b *testing.B) {
			var slowdown float64
			for i := 0; i < b.N; i++ {
				prog2, _ := w.Build()
				m, _ := machine.New(prog2, io.Discard)
				m.Delivery = kind.k
				fpvm.Attach(m, fpvm.Config{System: arith.NewMPFR(200)})
				if err := m.Run(0); err != nil {
					b.Fatal(err)
				}
				slowdown = float64(m.Cycles) / float64(nm.Cycles)
			}
			b.ReportMetric(slowdown, "slowdown-x")
		})
	}
}

// BenchmarkAblationMPFRPrecisionEndToEnd sweeps the alternative arithmetic
// precision on a whole workload: the end-to-end version of Figure 11.
func BenchmarkAblationMPFRPrecisionEndToEnd(b *testing.B) {
	for _, prec := range []uint{64, 200, 1024, 4096} {
		b.Run(itoa(prec)+"bit", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runUnder(b, "Lorenz Attractor/", arith.NewMPFR(prec), fpvm.Config{})
			}
		})
	}
}

// BenchmarkPositWidths sweeps posit widths end to end.
func BenchmarkPositWidths(b *testing.B) {
	for _, cfg := range []posit.Config{posit.Posit16, posit.Posit32, posit.Posit64} {
		b.Run(cfg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runUnder(b, "Lorenz Attractor/", arith.NewPosit(cfg), fpvm.Config{})
			}
		})
	}
}

// BenchmarkSimulatorThroughput measures the raw interpreter (no FPVM):
// simulated instructions per second on an FP-dense workload.
func BenchmarkSimulatorThroughput(b *testing.B) {
	w, _ := workloads.Get("NAS LU/Class S")
	prog, err := w.Build()
	if err != nil {
		b.Fatal(err)
	}
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, _ := machine.New(prog.Clone(), io.Discard)
		if err := m.Run(0); err != nil {
			b.Fatal(err)
		}
		insts = m.Stats.Instructions
	}
	b.ReportMetric(float64(insts), "sim-instructions")
}

// BenchmarkValidationVanilla times the §5.2 validation pass (also asserting
// it still holds under -bench runs).
func BenchmarkValidationVanilla(b *testing.B) {
	w, _ := workloads.Get("FBench/")
	prog, err := w.Build()
	if err != nil {
		b.Fatal(err)
	}
	var native bytes.Buffer
	nm, _ := machine.New(prog, &native)
	if err := nm.Run(0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog2, _ := w.Build()
		var out bytes.Buffer
		m, _ := machine.New(prog2, &out)
		fpvm.Attach(m, fpvm.Config{System: arith.Vanilla{}})
		if err := m.Run(0); err != nil {
			b.Fatal(err)
		}
		if out.String() != native.String() {
			b.Fatal("validation broke under benchmarking")
		}
	}
}
