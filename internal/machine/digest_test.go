package machine

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fpvm/internal/asm"
	"fpvm/internal/fpu"
	"fpvm/internal/progen"
)

// digestFile pins the exact native semantics of the executor: one line per
// digest, "<sha256 prefix> <mode> <name>".
const digestFile = "testdata/exec_digests.txt"

// digestMode is how a digest run is set up: natively (default MXCSR, no
// handlers) or under the permissive trap handlers (every exception unmasked,
// the NaN-load extension on, an FP handler that skips the faulting
// instruction and a correctness handler that does nothing).
type digestMode string

const (
	modeNative digestMode = "native"
	modeTrap   digestMode = "trap"
)

func (mode digestMode) arm(m *Machine) {
	if mode != modeTrap {
		return
	}
	m.MXCSR.SetMasks(0)
	m.TrapOnNaNLoad = true
	m.FPTrap = func(f *TrapFrame) error {
		f.M.RIP = f.Inst.Addr + uint64(f.Inst.Len)
		return nil
	}
	m.CorrectnessTrap = func(f *TrapFrame) error { return nil }
}

// stateDigest hashes everything a run leaves behind: registers, flags,
// MXCSR, RIP, modeled cycles, every counter, the nonzero words of memory,
// the printed output and the returned error text.
func stateDigest(m *Machine, out []byte, runErr error) string {
	h := sha256.New()
	fmt.Fprintf(h, "R=%v F=%v flags=%+v mxcsr=%#x rip=%#x halted=%v cycles=%d stats=%+v\n",
		m.R, m.F, m.Flags, uint32(m.MXCSR), m.RIP, m.halted, m.Cycles, m.Stats)
	var w [16]byte
	for i := 0; i+8 <= len(m.Mem); i += 8 {
		if v := binary.LittleEndian.Uint64(m.Mem[i:]); v != 0 {
			binary.LittleEndian.PutUint64(w[:8], uint64(i))
			binary.LittleEndian.PutUint64(w[8:], v)
			h.Write(w[:])
		}
	}
	fmt.Fprintf(h, "mem=%d out=%q err=%v\n", len(m.Mem), out, runErr)
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// rawCorpusDigest runs 300 seeded progen.Raw programs (the corpus of
// TestFuzzNativeExecution) to the 20,000-instruction budget under mode and
// folds every final-state digest into one.
func rawCorpusDigest(t *testing.T, mode digestMode) string {
	t.Helper()
	h := sha256.New()
	r := rand.New(rand.NewSource(100))
	for i := 0; i < 300; i++ {
		prog := progen.Raw(r, 40)
		var out bytes.Buffer
		m, err := New(prog, &out)
		if err != nil {
			fmt.Fprintf(h, "%d new: %v\n", i, err)
			continue
		}
		mode.arm(m)
		err = m.Run(20_000)
		fmt.Fprintf(h, "%d %s\n", i, stateDigest(m, out.Bytes(), err))
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// hotFormMemSize is the memory of a hot-form row: small, so a digest is
// cheap, and so the partial-word address below is easy to spell.
const hotFormMemSize = 64 << 10

// hotFormPrelude sets up every register a hot-form operand names: r1 a
// plain value, r2 the data cell, r3 an index, r4 a negative (wrapping)
// address, r5 an address whose 8-byte word straddles the end of memory, r7
// a code label, f1 an FP value. The data cell's fourth word is a NaN bit
// pattern, so an integer load of it raises the NaN-load trap in trap mode.
const hotFormPrelude = `.data
cell: .i64 41, -5, 9, 0x7FF8000000000001, 0
.text
	mov r1, $3
	mov r2, &cell
	mov r3, $1
	mov r4, $-8
	mov r5, $65532
	mov r7, done
	movsd f1, =2.5
`

// Operand shapes for the hot-form rows: every operand kind the assembler
// accepts, every memory addressing form, and both out-of-bounds cases.
var (
	hotDsts = []string{"r1", "f1", "$7", "[r2]", "[r2+8]", "[r2+r3*8+8]", "[cell+16]", "[r4]", "[r5]"}
	hotSrcs = []string{"r1", "f1", "$7", "$-1", "[r2]", "[r2+r3*8]", "[r2+24]", "[cell+8]", "[r4]", "[r5]"}
)

// hotFormRows returns the instruction under test of every hot-form row: the
// integer and branch forms that dominate native retirement (mov load and
// store, inc, cmp, and, jl, and add), each in every operand shape.
func hotFormRows() []string {
	var rows []string
	for _, op := range []string{"mov", "add", "and", "cmp"} {
		for _, d := range hotDsts {
			for _, s := range hotSrcs {
				rows = append(rows, op+" "+d+", "+s)
			}
		}
	}
	for _, d := range hotDsts {
		rows = append(rows, "inc "+d)
	}
	// jl after a compare that takes it and one that does not, to every
	// target shape: a label, a register, a memory word holding the label,
	// a wrong-kind register, and an out-of-bounds word.
	for _, cmp := range []string{"cmp r3, $2", "cmp r3, $0"} {
		for _, tgt := range []string{"done", "r7", "[r2+32]", "f1", "[r4]", "$1"} {
			rows = append(rows, "mov [r2+32], r7\n\t"+cmp+"\n\tjl "+tgt)
		}
	}
	return rows
}

func hotFormDigest(t *testing.T, row string, mode digestMode) string {
	t.Helper()
	prog, err := asm.Assemble(hotFormPrelude + "\t" + row + "\n\tinc r3\ndone:\n\thalt\n")
	if err != nil {
		t.Fatalf("%q: %v", row, err)
	}
	var out bytes.Buffer
	m, err := newSized(prog, &out, hotFormMemSize)
	if err != nil {
		t.Fatalf("%q: %v", row, err)
	}
	mode.arm(m)
	err = m.Run(1000)
	return stateDigest(m, out.Bytes(), err)
}

// execDigests computes every digest line of digestFile.
func execDigests(t *testing.T) []string {
	var lines []string
	for _, mode := range []digestMode{modeNative, modeTrap} {
		lines = append(lines, fmt.Sprintf("%s %s raw-corpus", rawCorpusDigest(t, mode), mode))
		for _, row := range hotFormRows() {
			name := strings.ReplaceAll(row, "\n\t", "; ")
			lines = append(lines, fmt.Sprintf("%s %s %s", hotFormDigest(t, row, mode), mode, name))
		}
		for _, row := range fpArithRows {
			lines = append(lines, fmt.Sprintf("%s %s fp %s", fpArithDigest(t, row, mode), mode, row))
		}
	}
	return lines
}

// TestRawExecutionDigest pins the executor's exact semantics, not just its
// freedom from panics: the seeded progen.Raw corpus natively and under the
// permissive trap handlers, each hot integer and branch form in every
// operand shape, including out-of-bounds loads and stores and wrong-kind
// operand faults, and each FP arithmetic form on operands around every
// exponent, NaN and rounding edge the FPU distinguishes. Each final state (registers, flags, MXCSR, RIP, cycles,
// counters, memory, output and error text) must hash to the recorded
// digest. A change to dispatch must leave every line in place; the test
// prints each mismatch, and every computed line when the file is missing.
func TestRawExecutionDigest(t *testing.T) {
	got := execDigests(t)
	f, err := os.Open(filepath.FromSlash(digestFile))
	if err != nil {
		t.Fatalf("%v; computed digests:\n%s", err, strings.Join(got, "\n"))
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d digests, computed %d", digestFile, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("digest mismatch:\n got  %s\n want %s", got[i], want[i])
		}
	}
}

// fpFamilies are the operand values of the FP-arithmetic digest rows: the
// ordinary values, both edges of the exponent window |x| in [2^-480, 2^481)
// (just inside and just outside, each sign), the normal/subnormal boundary
// at 2^-1022, the subnormals, ±0, ±Inf, quiet and signaling NaNs, and the
// sNaN pattern of a NaN-box (key 5).
var fpFamilies = []uint64{
	math.Float64bits(1), math.Float64bits(3), math.Float64bits(-1.0 / 3),
	math.Float64bits(0.1), math.Float64bits(1 + 0x1p-52), math.Float64bits(-7),
	math.Float64bits(0x1p-480), math.Float64bits(0x1.8p-480), math.Float64bits(-0x1.0000000000001p-480),
	math.Float64bits(math.Nextafter(0x1p-480, 0)), math.Float64bits(-math.Nextafter(0x1p-480, 0)),
	math.Float64bits(math.Nextafter(0x1p481, 0)), math.Float64bits(-0x1.8p480), math.Float64bits(0x1p481),
	math.Float64bits(-0x1p481), math.Float64bits(0x1.0000000000001p481),
	math.Float64bits(0x1p-1022), math.Float64bits(math.Nextafter(0x1p-1022, 0)),
	math.Float64bits(-math.Nextafter(0x1p-1022, 1)), math.Float64bits(0x1p-1074),
	math.Float64bits(-3 * 0x1p-1074), math.Float64bits(0x1p1023), math.Float64bits(math.MaxFloat64),
	0, 1 << 63, math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
	0x7FF8000000000000, 0xFFF8000000000123, 0x7FF0000000000001, 0x7FF0000000000006,
}

// fpIntFamilies are the integer operands of the cvtsi2sd rows: zero, small
// values, both sides of 2^53 and the int64 extremes.
var fpIntFamilies = []int64{0, 1, -1, 3, 1 << 53, 1<<53 + 1, -(1<<53 + 1), 1<<62 + 1, math.MaxInt64, math.MinInt64}

// fpArithRows are the instruction forms of the FP-arithmetic digest rows:
// every scalar and packed arithmetic op, the fused multiply-add, both
// compares and the three conversions. f0 is the destination (and the first
// source of a two-operand form), f1 and f2 the other sources, r1 the integer
// side of a conversion.
var fpArithRows = []string{
	"addsd f0, f1", "subsd f0, f1", "mulsd f0, f1", "divsd f0, f1",
	"sqrtsd f0, f1", "minsd f0, f1", "maxsd f0, f1",
	"addpd f0, f1", "subpd f0, f1", "mulpd f0, f1", "divpd f0, f1", "sqrtpd f0, f1",
	"fmaddsd f0, f1, f2", "ucomisd f0, f1", "comisd f0, f1",
	"cvtsi2sd f0, r1", "cvtsd2si r1, f1", "cvttsd2si r1, f1",
}

// fpArithDigest runs one FP-arithmetic row on every operand combination
// under mode and folds each final-state digest into one: every ordered pair
// of fpFamilies as (f0, f1), with the swapped pair in the upper lane, f2
// the family after the pair's, and, for cvtsd2si and cvtsi2sd, each of the
// four rounding controls. The state hash covers the value bits and MXCSR.
func fpArithDigest(t *testing.T, row string, mode digestMode) string {
	t.Helper()
	img, err := NewImage(asm.MustAssemble(row+"\n\thalt\n"), nil)
	if err != nil {
		t.Fatalf("%q: %v", row, err)
	}
	h := sha256.New()
	run := func(set func(m *Machine), rc fpu.RoundingControl) {
		var out bytes.Buffer
		m, err := NewFromImage(img, &out, 4096)
		if err != nil {
			t.Fatalf("%q: %v", row, err)
		}
		mode.arm(m)
		m.MXCSR.SetRC(rc)
		set(m)
		err = m.Run(10)
		fmt.Fprintf(h, "%s\n", stateDigest(m, out.Bytes(), err))
	}
	rcs := []fpu.RoundingControl{fpu.RCNearest}
	if strings.HasPrefix(row, "cvtsd2si") || strings.HasPrefix(row, "cvtsi2sd") {
		rcs = append(rcs, fpu.RCDown, fpu.RCUp, fpu.RCZero)
	}
	for _, rc := range rcs {
		if strings.HasPrefix(row, "cvtsi2sd") {
			for _, v := range fpIntFamilies {
				run(func(m *Machine) { m.R[1] = v; m.F[0] = [2]uint64{fpFamilies[0], fpFamilies[1]} }, rc)
			}
			continue
		}
		n := len(fpFamilies)
		for i, a := range fpFamilies {
			for j, b := range fpFamilies {
				c := fpFamilies[(i+j+1)%n]
				run(func(m *Machine) {
					m.F[0] = [2]uint64{a, b}
					m.F[1] = [2]uint64{b, a}
					m.F[2] = [2]uint64{c, c}
					m.R[1] = 12345
				}, rc)
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}
