// The quickstart example shows the whole FPVM pipeline on a ten-line
// program: assemble it, run it natively, analyze + patch it, then run the
// same binary under FPVM with 200-bit MPFR arithmetic and with posits, and
// show how the printed results change while the binary stays identical.
package main

import (
	"fmt"
	"log"
	"os"

	"fpvm"
	"fpvm/internal/arith"
	"fpvm/internal/asm"
	"fpvm/internal/examples"
	"fpvm/internal/posit"
)

// The program sums 1/k for k = 1..100000 — the classic harmonic series,
// whose IEEE double result carries visible rounding error. The source lives
// in the shared example registry so the differential oracle covers it.
const src = examples.Harmonic

func run(sys arith.System) (string, *fpvm.VM, error) {
	prog, err := asm.Assemble(src)
	if err != nil {
		return "", nil, err
	}
	out := &capture{}
	m, err := fpvm.NewMachine(prog, out)
	if err != nil {
		return "", nil, err
	}
	var vm *fpvm.VM
	if sys != nil {
		// Static analysis + correctness patching, then attach FPVM —
		// exactly the paper's hybrid pipeline.
		if _, err := fpvm.AnalyzeAndPatch(prog, m); err != nil {
			return "", nil, err
		}
		vm = fpvm.Attach(m, fpvm.Config{System: sys})
	}
	if err := m.Run(0); err != nil {
		return "", nil, err
	}
	return out.String(), vm, nil
}

type capture struct{ buf []byte }

func (c *capture) Write(p []byte) (int, error) { c.buf = append(c.buf, p...); return len(p), nil }
func (c *capture) String() string              { return string(c.buf) }

func main() {
	native, _, err := run(nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("harmonic sum H(100000), same binary, four arithmetic systems:\n\n")
	fmt.Printf("  native IEEE double:   %s", native)

	vanilla, _, err := run(arith.Vanilla{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  FPVM + Vanilla:       %s", vanilla)
	if vanilla == native {
		fmt.Println("                        (bit-identical: the emulator is faithful, §5.2)")
	}

	mp, vm, err := run(arith.NewMPFR(200))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  FPVM + MPFR 200-bit:  %s", mp)
	fmt.Printf("                        (%d traps, %d shadow values emulated)\n",
		vm.Stats.Traps, vm.Stats.Emulated)

	ps, _, err := run(arith.NewPosit(posit.Posit32))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  FPVM + posit<32,2>:   %s", ps)

	fmt.Println("\nThe exact value of H(100000) is 12.090146129863427947363219...")
	fmt.Println("MPFR recovers the digits IEEE loses; posit32 trades tail precision away.")
	os.Exit(0)
}
