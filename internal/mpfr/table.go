package mpfr

import (
	"math"
	"math/bits"
)

// Table is a flat table of numbers of one precision, for a caller that keeps
// many of them alive at once (FPVM's shadow cells). Record i is one header
// word, the exponent, sign and form packed together, followed by the
// ⌈prec/64⌉ mantissa words. Records sit in []uint64 chunks of 1024, so
// growing never moves a record and the Go GC never scans a chunk: it holds
// no pointers.
//
// A Float works on a record as a view (Bind): its mantissa is the record's
// own words, so an operation into the view writes the result's mantissa in
// place, and Commit writes its header back. A fresh record holds NaN.
type Table struct {
	prec   uint32
	words  int // mantissa words per record
	stride int // words per record: the header and the mantissa
	chunks [][]uint64
}

const (
	tableChunkShift = 10
	tableChunkMask  = 1<<tableChunkShift - 1
)

// The header word holds the form in bits 0–1 (xor nan, so that a zero word
// is a NaN), the sign in bit 2 and the exponent, two's complement, in bits
// 3–63. A finite result whose exponent is outside [tableMinExp, tableMaxExp]
// is stored as an overflow (±Inf) or underflow (±0), as MPFR does beyond
// its exponent range.
const (
	hdrFormMask = 3
	hdrNeg      = 4
	hdrExpShift = 3
	tableMaxExp = 1<<(63-hdrExpShift) - 1
	tableMinExp = -1 << (63 - hdrExpShift)
)

// NewTable returns an empty table of Floats of precision prec.
func NewTable(prec uint) *Table {
	p := clampPrec(prec)
	w := int(p+63) / 64
	return &Table{prec: p, words: w, stride: 1 + w}
}

// Grow adds chunks until record i exists.
func (t *Table) Grow(i uint64) {
	for i>>tableChunkShift >= uint64(len(t.chunks)) {
		t.chunks = append(t.chunks, make([]uint64, (tableChunkMask+1)*t.stride))
	}
}

// record returns the words of record i, which must exist.
func (t *Table) record(i uint64) []uint64 {
	c := t.chunks[i>>tableChunkShift]
	off := int(i&tableChunkMask) * t.stride
	return c[off : off+t.stride : off+t.stride]
}

// Bind makes z a view of record i: z takes the record's value, and its
// mantissa storage is the record's mantissa words. An operation into z then
// writes its mantissa in place, and Commit(i, z) stores the rest. z must
// keep the table's precision while it is bound.
func (t *Table) Bind(z *Float, i uint64) {
	r := t.record(i)
	h := r[0]
	z.prec, z.form, z.neg, z.exp = t.prec, form(h&hdrFormMask)^nan, h&hdrNeg != 0, int64(h)>>hdrExpShift
	// A finite form's bits are 3, so (bits+1)>>2 is 1 for it and 0 for the
	// others: only a finite value has mantissa words.
	z.mant = r[1 : 1+t.words*int((h&hdrFormMask+1)>>2)]
}

// Commit writes the header of z, a view of record i, back into the record;
// the mantissa is already there.
func (t *Table) Commit(i uint64, z *Float) {
	f, neg, exp := z.form, z.neg, z.exp
	switch {
	case f != finite:
		exp = 0
	case exp > tableMaxExp:
		f, exp = inf, 0
	case exp < tableMinExp:
		f, exp = zero, 0
	}
	t.record(i)[0] = header(f, neg, exp)
}

func header(f form, neg bool, exp int64) uint64 {
	h := uint64(exp)<<hdrExpShift | uint64(f^nan)
	if neg {
		h |= hdrNeg
	}
	return h
}

// Move copies record src into record dst, growing the table until dst
// exists.
func (t *Table) Move(dst, src uint64) {
	t.Grow(dst)
	copy(t.record(dst), t.record(src))
}

// SetFloat64 sets record i to v rounded to the table's precision with mode
// rnd. At 53 bits and more every double is exact, so its significant bits
// go straight into the record.
func (t *Table) SetFloat64(i uint64, v float64, rnd RoundingMode) {
	if t.prec < 53 {
		var z Float
		t.Bind(&z, i)
		z.SetFloat64(v, rnd)
		t.Commit(i, &z)
		return
	}
	r := t.record(i)
	b := math.Float64bits(v)
	neg := b>>63 != 0
	biased := int64(b >> 52 & 0x7FF)
	m := b & (1<<52 - 1)
	switch {
	case biased == 0x7FF && m != 0:
		r[0] = header(nan, false, 0)
		return
	case biased == 0x7FF:
		r[0] = header(inf, neg, 0)
		return
	case biased == 0 && m == 0:
		r[0] = header(zero, neg, 0)
		return
	case biased == 0:
		biased = 1 // subnormal: m · 2^-1074
	default:
		m |= 1 << 52
	}
	// v = m · 2^(biased-1075) with m of l bits; the record's mantissa is m
	// shifted up to exactly prec bits, and |v| < 2^(biased-1075+l).
	l := bits.Len64(m)
	shift := int(t.prec) - l
	mant := r[1:]
	clear(mant)
	k, off := shift/64, uint(shift%64)
	mant[k] = m << off
	if off != 0 && k+1 < len(mant) {
		mant[k+1] = m >> (64 - off)
	}
	r[0] = header(finite, neg, biased-1075+int64(l))
}
