package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"fpvm/internal/arith"
	"fpvm/internal/fpu"
)

// span is one timed call the benchmark made into a layer. Parent is the id
// of the span that caused it (0 for a root), Req the request or program run
// it belongs to. Times are nanoseconds since the tracer started.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// leaf is a run of identical leaf spans folded into one record: the arith
// calls under a run span number in the hundreds of thousands per pass, so
// they are kept as (parent, name, calls, total ns) rather than one by one.
type leaf struct {
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Calls  int64  `json:"calls"`
	NS     int64  `json:"ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the timed code paths are the
// same in both modes apart from the recording itself.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	leaves []leaf
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, req int32) int32 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a root span whose times were taken by the caller.
func (t *tracer) record(name string, req int32, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int32(len(t.spans) + 1), Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

func (t *tracer) fold(l leaf) {
	if t == nil || l.Calls == 0 {
		return
	}
	t.mu.Lock()
	t.leaves = append(t.leaves, l)
	t.mu.Unlock()
}

// layerTime is the host time attributed to one span name: count, total
// duration and self time (duration minus the time its children cover).
type layerTime struct {
	Calls   int64
	TotalNS int64
	SelfNS  int64
}

// layers sums spans and folded leaves by name. Children of one span never
// overlap (the benchmark calls layers one after another), so a span's self
// time is its duration minus the sum of its children's durations.
func (t *tracer) layers() map[string]*layerTime {
	out := map[string]*layerTime{}
	get := func(name string) *layerTime {
		lt := out[name]
		if lt == nil {
			lt = &layerTime{}
			out[name] = lt
		}
		return lt
	}
	child := make(map[int32]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for _, l := range t.leaves {
		child[l.Parent] += l.NS
		lt := get(l.Name)
		lt.Calls += l.Calls
		lt.TotalNS += l.NS
		lt.SelfNS += l.NS
	}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		lt := get(s.Name)
		d := s.End - s.Start
		lt.Calls++
		lt.TotalNS += d
		lt.SelfNS += d - child[s.ID]
	}
	return out
}

// write stores the spans and folded leaves as JSONL under dir.
func (t *tracer) write(dir, base string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, base+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	for _, l := range t.leaves {
		if err := enc.Encode(struct {
			Leaf leaf `json:"leaf"`
		}{l}); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// Method groups of the arith.System interface the traced wrapper times.
const (
	arithApply   = iota // Apply
	arithConvert        // FromFloat64, ToFloat64, FromInt64, ToInt64
	arithFormat         // Format
	arithOther          // Compare, IsNaN, OpCycles
	numArithGroups
)

var arithGroupNames = [numArithGroups]string{"arith.apply", "arith.convert", "arith.format", "arith.other"}

// tracedSystem is a pass-through arith.System that times every method call.
// It is safe to substitute because neither the FPVM runtime nor the session
// layer type-asserts the System it is given; every guest-visible result
// comes from the wrapped System unchanged.
type tracedSystem struct {
	arith.System
	calls [numArithGroups]int64
	ns    [numArithGroups]int64
}

func (s *tracedSystem) since(g int, t time.Time) {
	s.calls[g]++
	s.ns[g] += time.Since(t).Nanoseconds()
}

func (s *tracedSystem) Apply(op arith.Op, args ...arith.Value) arith.Value {
	t := time.Now()
	v := s.System.Apply(op, args...)
	s.since(arithApply, t)
	return v
}

func (s *tracedSystem) FromFloat64(v float64) arith.Value {
	t := time.Now()
	r := s.System.FromFloat64(v)
	s.since(arithConvert, t)
	return r
}

func (s *tracedSystem) ToFloat64(v arith.Value) float64 {
	t := time.Now()
	r := s.System.ToFloat64(v)
	s.since(arithConvert, t)
	return r
}

func (s *tracedSystem) FromInt64(i int64) arith.Value {
	t := time.Now()
	r := s.System.FromInt64(i)
	s.since(arithConvert, t)
	return r
}

func (s *tracedSystem) ToInt64(v arith.Value, rc fpu.RoundingControl) (int64, bool) {
	t := time.Now()
	r, ok := s.System.ToInt64(v, rc)
	s.since(arithConvert, t)
	return r, ok
}

func (s *tracedSystem) Compare(a, b arith.Value) (int, bool) {
	t := time.Now()
	ord, un := s.System.Compare(a, b)
	s.since(arithOther, t)
	return ord, un
}

func (s *tracedSystem) IsNaN(v arith.Value) bool {
	t := time.Now()
	r := s.System.IsNaN(v)
	s.since(arithOther, t)
	return r
}

func (s *tracedSystem) Format(v arith.Value) string {
	t := time.Now()
	r := s.System.Format(v)
	s.since(arithFormat, t)
	return r
}

func (s *tracedSystem) OpCycles(op arith.Op) uint64 {
	t := time.Now()
	r := s.System.OpCycles(op)
	s.since(arithOther, t)
	return r
}

// flush folds the wrapper's counts into tr as leaves of span parent.
func (s *tracedSystem) flush(tr *tracer, parent int32) {
	for g := range s.calls {
		tr.fold(leaf{Parent: parent, Name: arithGroupNames[g], Calls: s.calls[g], NS: s.ns[g]})
	}
}

// sortedNames returns the keys of a layer map in order.
func sortedNames(m map[string]*layerTime) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
