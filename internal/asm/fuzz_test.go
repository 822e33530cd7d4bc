package asm_test

import (
	"runtime"
	"testing"

	"fpvm/internal/asm"
	"fpvm/internal/isa"
)

// allocPerByte bounds what the assembler may allocate per source byte: a
// line's strings, operand slices, pending instruction and encoding, with
// room to spare. Together with the data ceiling it is the whole budget.
const allocPerByte = 1 << 10

// FuzzAssemble feeds arbitrary text to the assembler, the first thing
// fpvm-serve does with an inline-asm body. The assembler must never panic,
// and it must never allocate more than a fixed multiple of the input size
// plus isa.MaxMemSize: a body cannot make the server allocate memory it
// never sent, least of all through a .zero size. The checked-in corpus
// (testdata/fuzz/FuzzAssemble) holds generated FP loops, every directive and
// the data-ceiling edges.
func FuzzAssemble(f *testing.F) {
	f.Add("movsd f0, =1.5\naddsd f0, =2.25\noutf f0\nhalt\n")
	f.Fuzz(func(t *testing.T, src string) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		prog, err := asm.Assemble(src)
		runtime.ReadMemStats(&after)
		budget := uint64(allocPerByte*len(src)) + isa.MaxMemSize + 1<<20
		if got := after.TotalAlloc - before.TotalAlloc; got > budget {
			t.Fatalf("assembling %d bytes allocated %d bytes (budget %d)", len(src), got, budget)
		}
		if err == nil && uint64(len(prog.Data)) > isa.MaxMemSize {
			t.Fatalf("accepted a %d-byte data segment", len(prog.Data))
		}
	})
}
