package arith

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fpvm/internal/fpu"
)

// The store digest pins everything the MPFR Store returns through the Store
// interface, at precisions on either side of every word boundary the cell
// layout has (2 and 53 bits in one word, 64/65 and 256/257 at the edge of a
// word, the paper's 200, and 1024 and 16384 for long mantissas). Each line is
// the SHA-256 of one precision's results: promotions of the FPU's operand
// families, integer conversions, every Op's Apply, Move chains across the
// 1023/1024 chunk boundary, and the demotion, integer conversion under all
// four rounding controls, comparison and decimal text of each result. It was
// recorded with mpfr.Float cells; a change to the cell layout must leave it
// unchanged.

const storeDigestFile = "testdata/store_digest.txt"

var storeDigestPrecs = []uint{2, 53, 64, 65, 113, 200, 256, 257, 1024, 16384}

// storeDigestDoubles are the FPU's operand families: signed zeros,
// subnormals, the edges of the fast-path exponent window (biased exponents
// 543 and 1503, |x| in [2^-480, 2^481)), the normal range's ends, the
// infinities and NaN, and a few ordinary values with long binary expansions.
var storeDigestDoubles = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), math.Float64frombits(0x0000000123456789),
	0x1p-1022, -0x1p-1022,
	math.Nextafter(0x1p-480, 0), 0x1p-480, math.Nextafter(0x1p-480, 1),
	math.Nextafter(0x1p481, 0), -0x1p481, math.Nextafter(0x1p481, math.Inf(1)),
	math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
	1, -1, 0.5, 2.5, -2.5, 3, 1.0 / 3, math.Pi, -math.E, 1e300, -1e-300, 0x1.fffffffffffffp52,
}

var storeDigestInts = []int64{0, 1, -1, 7, -1000, 1<<53 + 1, -(1 << 60) - 3, math.MaxInt64, math.MinInt64}

var storeDigestRCs = []fpu.RoundingControl{fpu.RCNearest, fpu.RCDown, fpu.RCUp, fpu.RCZero}

// storeDigestOperands are the Apply operands by their storeDigestDoubles
// index: ±0, a subnormal, the window edges, ±Inf, NaN and ordinary values.
// Two more, full-width quotients and roots, are appended at the end of the
// key cells by storeDigest.
var storeDigestOperands = []int{1, 2, 9, 13, 16, 18, 19, 22, 23, 24, 26}

// storeDigest hashes every Store result at one precision.
func storeDigest(prec uint) string {
	sys := NewMPFR(prec)
	st := StoreFor(sys, nil)
	h := sha256.New()
	res := Cell(NumScratch - 1)
	record := func(c Cell, against ...Cell) {
		digestCell(h, st, c)
		for _, o := range against {
			ord, un := st.Compare(c, o)
			fmt.Fprintf(h, "cmp %d %v\n", ord, un)
		}
	}

	// Promotions, each then moved along a chain of key cells whose links
	// cross the first and the second chunk boundary.
	chain := []Cell{KeyCell(1019), KeyCell(1020), KeyCell(1018), KeyCell(2044), KeyCell(2043), KeyCell(7)}
	for _, v := range storeDigestDoubles {
		st.SetFloat64(0, v)
		record(0)
		src := Cell(0)
		for _, dst := range chain {
			st.Move(dst, src)
			src = dst
		}
		record(src)
	}
	for _, n := range storeDigestInts {
		st.SetInt64(1, n)
		st.Move(KeyCell(1020), 1)
		record(KeyCell(1020))
	}

	// The operands go into key cells 100 onward; the last two hold
	// full-width values: 1/3 and the square root of 2.
	var ops []Cell
	for i, d := range storeDigestOperands {
		st.SetFloat64(0, storeDigestDoubles[d])
		st.Move(KeyCell(uint64(100+i)), 0)
		ops = append(ops, KeyCell(uint64(100+i)))
	}
	st.SetFloat64(0, 1)
	st.SetFloat64(1, 3)
	st.Apply(OpDiv, 2, 0, 1, 0)
	st.Move(KeyCell(200), 2)
	st.SetFloat64(0, 2)
	st.Apply(OpSqrt, 2, 0, 0, 0)
	st.Move(KeyCell(201), 2)
	ops = append(ops, KeyCell(200), KeyCell(201))

	// Every op on a spread of operand tuples; the transcendentals take
	// fewer tuples at long precisions, where each costs milliseconds.
	for op := Op(0); op < NumOps; op++ {
		n := len(ops)
		if prec > 1024 && sys.OpCycles(op) > 2*sys.OpCycles(OpDiv) {
			n = 4
		}
		for i := 0; i < n; i++ {
			a, b, c := ops[len(ops)-1-i], ops[(i*5+3)%len(ops)], ops[(i*7+1)%len(ops)]
			st.Apply(op, res, a, b, c)
			fmt.Fprintf(h, "%s\n", op)
			record(res, a, b)
			// The result survives a move into a new key cell and back.
			st.Move(KeyCell(uint64(3000+i)), res)
			st.Move(res, KeyCell(uint64(3000+i)))
			record(res)
		}
	}
	return fmt.Sprintf("mpfr%d %x", prec, h.Sum(nil))
}

// digestCell writes c's decimal text, demotion and integer conversions.
func digestCell(h hash.Hash, st Store, c Cell) {
	var buf [8]byte
	fmt.Fprintf(h, "%s\n", st.Format(c))
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(st.Float64(c)))
	h.Write(buf[:])
	for _, rc := range storeDigestRCs {
		i, ok := st.Int64(c, rc)
		fmt.Fprintf(h, "%d %v\n", i, ok)
	}
}

func TestStoreDigest(t *testing.T) {
	var got []string
	for _, p := range storeDigestPrecs {
		got = append(got, storeDigest(p))
	}
	f, err := os.Open(filepath.FromSlash(storeDigestFile))
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
		t.Fatalf("%s has %d digests, computed %d:\n%s", storeDigestFile, len(want), len(got), strings.Join(got, "\n"))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("digest mismatch:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
