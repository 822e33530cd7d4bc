package arith

import (
	"math"

	"fpvm/internal/fpu"
	"fpvm/internal/mpfr"
)

// Cell names one shadow value in a Store. Cells 0 through NumScratch-1 are
// scratch owned by the caller (promoted operands, the universal NaN, a
// result not yet boxed); KeyCell names the cell of an arena key.
type Cell uint64

// NumScratch is the number of scratch cells at the front of every Store:
// one per operand of the widest operation (FMA) and one for a result.
const NumScratch = 4

// KeyCell returns the cell that holds the shadow value of arena key k.
func KeyCell(k uint64) Cell { return Cell(k) + NumScratch }

// Store keeps shadow values in typed cells owned by the arithmetic system
// and computes destination-passing: every operation writes its result into
// a cell the caller names, so no operation allocates a value — the paper's
// pairing of the scalar interface with explicit memory management (§4.3).
// The caller owns the cell lifetimes: a cell is written before it is read,
// and a freed cell simply keeps its storage until it is written again.
//
// A Store makes exactly the System calls the same operations on boxed
// Values would make, so a wrapper that observes or times its System (the
// sanitizer, a tracer) sees the same stream through either.
type Store interface {
	// Apply evaluates op on the cells a, b and c (only the first
	// op.Arity() are read) into dst, which must not be one of them.
	Apply(op Op, dst, a, b, c Cell)
	// SetFloat64 promotes an IEEE double into dst.
	SetFloat64(dst Cell, v float64)
	// SetInt64 converts an integer into dst.
	SetInt64(dst Cell, i int64)
	// Move transfers src's value into dst, creating dst's cell if the store
	// has not reached it yet; src's value is undefined afterwards.
	Move(dst, src Cell)
	// Float64 demotes c to an IEEE double.
	Float64(c Cell) float64
	// Int64 converts c to an integer under rc; ok is false when the value
	// has no integer form (the hardware's integer indefinite).
	Int64(c Cell, rc fpu.RoundingControl) (i int64, ok bool)
	// Compare orders a and b; unordered is true when either is NaN/NaR.
	Compare(a, b Cell) (ord int, unordered bool)
	// Format renders c for the hijacked output path.
	Format(c Cell) string
}

// StoreFor returns a Store serving sys: prev itself, cells kept, when it is
// of the kind sys needs, and a new Store otherwise. Vanilla and bfloat16
// keep float64 cells and MPFR keeps its values in an mpfr.Table of flat,
// pointer-free records. Every other System — posit, interval, adaptive, and
// any wrapper such as the sanitizer's or a tracer — goes through one boxed
// adapter that stores Values and calls sys. The choice is by concrete type,
// so a wrapper that embeds a System is never bypassed. Only the one Store is
// kept, so a VM holds the cells of the system it last ran and no other.
func StoreFor(sys System, prev Store) Store {
	switch sys := sys.(type) {
	case Vanilla, BFloat16System:
		s, ok := prev.(*f64Store)
		if !ok {
			s = &f64Store{cells: newCells[float64]()}
		}
		_, s.bf16 = sys.(BFloat16System)
		return s
	case *MPFRSystem:
		s, ok := prev.(*mpfrStore)
		if !ok || s.sys.prec != sys.prec {
			s = &mpfrStore{tab: mpfr.NewTable(sys.prec), mod: sys.newModScratch()}
			s.tab.Grow(NumScratch - 1)
		}
		s.sys = sys
		return s
	default:
		s, ok := prev.(*boxedStore)
		if !ok {
			s = &boxedStore{cells: newCells[Value]()}
		}
		s.reset(sys)
		return s
	}
}

// Cell-table chunk geometry: 1024 cells per chunk, 8 KiB of float64s or
// 16 KiB of Values. The MPFR table has the same geometry of its own.
const (
	cellChunkShift = 10
	cellChunkSize  = 1 << cellChunkShift
	cellChunkMask  = cellChunkSize - 1
)

// cells is a table of T grown in fixed-size chunks, so growing never copies
// a cell.
type cells[T any] struct {
	chunks [][]T
}

func newCells[T any]() cells[T] {
	var c cells[T]
	c.grow(NumScratch - 1)
	return c
}

// at returns cell c, which must already exist.
func (c *cells[T]) at(i Cell) *T { return &c.chunks[i>>cellChunkShift][i&cellChunkMask] }

// grow adds chunks until cell i exists and returns it.
func (c *cells[T]) grow(i Cell) *T {
	for int(i>>cellChunkShift) >= len(c.chunks) {
		c.chunks = append(c.chunks, make([]T, cellChunkSize))
	}
	return c.at(i)
}

// f64Store keeps Vanilla and bfloat16 values as bare float64s. bfloat16
// rounds every result and promotion to its lattice, as BFloat16System does.
type f64Store struct {
	cells[float64]
	bf16 bool
}

func (s *f64Store) round(v float64) float64 {
	if s.bf16 {
		return roundBF16(v)
	}
	return v
}

func (s *f64Store) Apply(op Op, dst, a, b, c Cell) {
	*s.at(dst) = s.round(Float64Op(op, *s.at(a), *s.at(b), *s.at(c)).Value)
}

func (s *f64Store) SetFloat64(dst Cell, v float64) { *s.at(dst) = s.round(v) }
func (s *f64Store) SetInt64(dst Cell, i int64)     { *s.at(dst) = s.round(float64(i)) }
func (s *f64Store) Move(dst, src Cell)             { *s.grow(dst) = *s.at(src) }
func (s *f64Store) Float64(c Cell) float64         { return *s.at(c) }

func (s *f64Store) Int64(c Cell, rc fpu.RoundingControl) (int64, bool) {
	return toInt64(*s.at(c), rc)
}

func (s *f64Store) Compare(a, b Cell) (int, bool) { return compare64(*s.at(a), *s.at(b)) }

func (s *f64Store) Format(c Cell) string { return format64(*s.at(c)) }

// compare64 orders two doubles; NaNs are unordered.
func compare64(x, y float64) (int, bool) {
	switch {
	case math.IsNaN(x) || math.IsNaN(y):
		return 0, true
	case x < y:
		return -1, false
	case x > y:
		return 1, false
	default:
		return 0, false
	}
}

// mpfrStore keeps MPFR values as records of an mpfr.Table: one header word
// and the mantissa each, with no pointer for the Go GC to trace. An
// operation binds Float views, on the stack, over the records it reads and
// the one it writes, and Move copies a record.
type mpfrStore struct {
	tab *mpfr.Table
	sys *MPFRSystem
	mod *modScratch // fmod's temporaries, this store's own
}

func (s *mpfrStore) Apply(op Op, dst, a, b, c Cell) {
	var z, x, y, w mpfr.Float
	s.tab.Bind(&z, uint64(dst))
	switch op.Arity() {
	case 3:
		s.tab.Bind(&w, uint64(c))
		fallthrough
	case 2:
		s.tab.Bind(&y, uint64(b))
		fallthrough
	default:
		s.tab.Bind(&x, uint64(a))
	}
	s.sys.apply(op, &z, &x, &y, &w, s.mod)
	s.tab.Commit(uint64(dst), &z)
}

func (s *mpfrStore) SetFloat64(dst Cell, v float64) { s.tab.SetFloat64(uint64(dst), v, s.sys.rnd) }

func (s *mpfrStore) SetInt64(dst Cell, i int64) {
	var z mpfr.Float
	s.tab.Bind(&z, uint64(dst))
	z.SetInt64(i, s.sys.rnd)
	s.tab.Commit(uint64(dst), &z)
}

func (s *mpfrStore) Move(dst, src Cell) { s.tab.Move(uint64(dst), uint64(src)) }

func (s *mpfrStore) Float64(c Cell) float64 {
	var x mpfr.Float
	s.tab.Bind(&x, uint64(c))
	return x.Float64(mpfr.RoundNearestEven)
}

func (s *mpfrStore) Int64(c Cell, rc fpu.RoundingControl) (int64, bool) {
	var x mpfr.Float
	s.tab.Bind(&x, uint64(c))
	return x.Int64(mpfrRounding(rc))
}

func (s *mpfrStore) Compare(a, b Cell) (int, bool) {
	var x, y mpfr.Float
	s.tab.Bind(&x, uint64(a))
	s.tab.Bind(&y, uint64(b))
	return compareMPFR(&x, &y)
}

func (s *mpfrStore) Format(c Cell) string {
	var x mpfr.Float
	s.tab.Bind(&x, uint64(c))
	return x.Text(0)
}

// boxedStore is the adapter for every System without typed cells: it keeps
// each shadow as the System's own Value and forwards each operation.
type boxedStore struct {
	cells[Value]
	sys  System
	args [3]Value
}

// reset binds the adapter to sys and drops the previous run's Values so the
// Go GC can reclaim them.
func (s *boxedStore) reset(sys System) {
	s.sys = sys
	for _, c := range s.chunks {
		clear(c)
	}
}

func (s *boxedStore) Apply(op Op, dst, a, b, c Cell) {
	in := [3]Cell{a, b, c}
	args := s.args[:op.Arity()]
	for i := range args {
		args[i] = *s.at(in[i])
	}
	*s.at(dst) = s.sys.Apply(op, args...)
}

func (s *boxedStore) SetFloat64(dst Cell, v float64) { *s.at(dst) = s.sys.FromFloat64(v) }
func (s *boxedStore) SetInt64(dst Cell, i int64)     { *s.at(dst) = s.sys.FromInt64(i) }

func (s *boxedStore) Move(dst, src Cell) { *s.grow(dst) = *s.at(src) }

func (s *boxedStore) Float64(c Cell) float64 { return s.sys.ToFloat64(*s.at(c)) }

func (s *boxedStore) Int64(c Cell, rc fpu.RoundingControl) (int64, bool) {
	return s.sys.ToInt64(*s.at(c), rc)
}

func (s *boxedStore) Compare(a, b Cell) (int, bool) { return s.sys.Compare(*s.at(a), *s.at(b)) }

func (s *boxedStore) Format(c Cell) string { return s.sys.Format(*s.at(c)) }
