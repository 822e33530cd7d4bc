// Package progen generates deterministic random programs for fuzzing and
// differential testing. It is the single home of the generators that the
// machine, fpvm, and oracle test suites share (they were previously
// copy-pasted per package): a structured floating point program generator
// whose output always assembles and runs to halt, and a raw instruction
// generator whose output always decodes but may fault.
//
// Every generator is a pure function of the *rand.Rand it is handed, so a
// seed fully determines the program — the property the differential oracle's
// fuzz target and the checked-in seed corpus rely on.
package progen

import (
	"math/rand"
	"strconv"

	"fpvm/internal/asm"
	"fpvm/internal/isa"
)

// DefaultFPLen is the arithmetic-chain length FPSource emits when callers
// have no reason to choose (long enough to mix every op class, short enough
// to keep a fuzz iteration cheap).
const DefaultFPLen = 60

// seeds is the checked-in corpus: seeds whose FPSource programs exercise
// every instruction class of the generator and (empirically) every MXCSR
// condition class through the trap-and-emulate path. They double as the
// f.Add corpus of FuzzDifferentialOracle.
var seeds = []int64{1, 7, 42, 90, 100, 101, 110, 271828, 314159, 161803}

// Seeds returns the checked-in seed corpus.
func Seeds() []int64 {
	out := make([]int64, len(seeds))
	copy(out, seeds)
	return out
}

// fpChain emits the body shared by FPSource and FPLoopSource: n random FP
// arithmetic instructions with stores and loads mixed in — straight-line
// runs of plain FP work broken by memory traffic, the exact shape the
// coalescing and trace-JIT tiers carve into sequences and superblocks.
func fpChain(r *rand.Rand, n int) string {
	ops := []string{"addsd", "subsd", "mulsd", "divsd", "minsd", "maxsd"}
	un := []string{"sqrtsd", "fsin", "fcos", "fexp", "fatan", "fabs", "ffloor"}
	var src string
	for i := 0; i < n; i++ {
		switch r.Intn(4) {
		case 0:
			src += "\t" + ops[r.Intn(len(ops))] +
				" f" + itoa(r.Intn(6)) + ", f" + itoa(r.Intn(6)) + "\n"
		case 1:
			src += "\t" + un[r.Intn(len(un))] +
				" f" + itoa(r.Intn(6)) + ", f" + itoa(r.Intn(6)) + "\n"
		case 2:
			slot := r.Intn(16) * 8
			src += "\tmovsd [buf+" + itoa(slot) + "], f" + itoa(r.Intn(6)) + "\n"
		default:
			slot := r.Intn(16) * 8
			src += "\tmovsd f" + itoa(r.Intn(6)) + ", [buf+" + itoa(slot) + "]\n"
		}
	}
	return src
}

// fpSeed re-seeds the working registers from constants.
const fpSeed = "\tmovsd f0, =1.5\n\tmovsd f1, =-0.75\n\tmovsd f2, =3.14159\n\tmovsd f3, =0.625\n"

// FPSource emits a random but well-formed FP computation: a chain of n
// arithmetic instructions over registers seeded from a few constants, with
// stores and loads mixed in — the adversarial input for the full FPVM
// pipeline. The program always assembles and always runs to a clean halt.
func FPSource(r *rand.Rand, n int) string {
	return ".data\nbuf: .zero 128\n.text\n" + fpSeed + fpChain(r, n) +
		"\toutf f0\n\toutf f1\n\thalt\n"
}

// FPLoopSource wraps an FPSource-style chain in a counted loop of iters
// passes. A straight-line FPSource program delivers at most one trap per
// site, so it can never cross a realistic trace-JIT threshold; the
// loop makes every trap site in the chain hot (registers are re-seeded each
// pass, but buf carries boxed values across iterations). Like FPSource, the
// output always assembles and always runs to a clean halt.
func FPLoopSource(r *rand.Rand, n, iters int) string {
	if iters < 1 {
		iters = 1
	}
	return ".data\nbuf: .zero 128\n.text\n\tmov r0, $0\nloop:\n" + fpSeed + fpChain(r, n) +
		"\tinc r0\n\tcmp r0, $" + itoa(iters) + "\n\tjl loop\n" +
		"\toutf f0\n\toutf f1\n\thalt\n"
}

// FPProgram assembles FPSource(r, n). The generator emits only valid
// assembly, so a non-nil error is a bug in progen or the assembler.
func FPProgram(r *rand.Rand, n int) (*isa.Program, error) {
	return asm.Assemble(FPSource(r, n))
}

// Raw generates a random-but-decodable program: any operands, any opcodes,
// halt-terminated. Executing it may fault (that is a defined outcome) but
// must never panic the interpreter.
func Raw(r *rand.Rand, n int) *isa.Program {
	var code []byte
	for i := 0; i < n; i++ {
		var op isa.Op
		for {
			op = isa.Op(1 + r.Intn(120))
			if op.Valid() {
				break
			}
		}
		in := isa.Inst{Op: op}
		for j := 0; j < isa.NumOperands(op); j++ {
			switch r.Intn(4) {
			case 0:
				in.Ops = append(in.Ops, isa.Reg(uint8(r.Intn(isa.NumIntRegs))))
			case 1:
				in.Ops = append(in.Ops, isa.FReg(uint8(r.Intn(isa.NumFPRegs))))
			case 2:
				// Immediates biased toward plausible code/data addresses so
				// some jumps land and some memory accesses hit.
				in.Ops = append(in.Ops, isa.Imm(int64(r.Intn(4096))))
			default:
				scales := []uint8{1, 2, 4, 8}
				o := isa.Operand{
					Kind:  isa.KindMem,
					Base:  uint8(r.Intn(isa.NumIntRegs)),
					Index: isa.RegNone,
					Scale: scales[r.Intn(4)],
					Disp:  int32(r.Intn(1 << 14)),
				}
				if r.Intn(2) == 0 {
					o.Index = uint8(r.Intn(isa.NumIntRegs))
				}
				in.Ops = append(in.Ops, o)
			}
		}
		c, err := isa.Encode(code, in)
		if err != nil {
			continue // operand combo rejected by the encoder: skip
		}
		code = c
	}
	code, _ = isa.Encode(code, isa.Inst{Op: isa.OpHalt})
	return &isa.Program{Code: code, Data: make([]byte, 512), DataBase: 0x1000}
}

func itoa(v int) string { return strconv.Itoa(v) }
