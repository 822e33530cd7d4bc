// Package sanitize is FPVM's numerical sanitizer: an NSan-style
// shadow-execution mode (Courbet, "NSan: a floating-point numerical
// sanitizer", CC 2021) built on the paper's §4.3 arithmetic-system seam.
// The guest runs ONCE under a wrapping arith.System that carries, beside
// every primary (architectural) value, a high-precision MPFR shadow and an
// outward-rounded interval enclosure. Each emulated operation is then
// observed three ways:
//
//   - shadow-verified error: the relative error of the primary result
//     against the high-precision shadow, converted to "lost bits" and
//     aggregated per PC. Every value also carries a blame site — the PC
//     where its error was last amplified — and a site is FLAGGED only when
//     a value blaming it, still above the threshold, reaches a
//     guest-observable consumption boundary (output formatting, an FP
//     compare, or an FP→int conversion). Checking at boundaries instead of
//     per-op is what keeps compensated algorithms clean: Kahan summation's
//     correction term shows a huge relative error against its shadow by
//     design, but that error is reabsorbed before anything the guest can
//     observe, so the site is reported (maxlost) yet never flagged;
//   - catastrophic cancellation: NSan's exponent-drop heuristic on
//     add/sub, with a per-value cancellation depth tracking how many
//     threshold-crossing cancellations feed a value's lineage;
//   - enclosure width: the interval shadow's diameter, an Ishii-style
//     (arXiv:2112.02804) certificate of accumulated rounding error, which
//     certify mode checks against each program output.
//
// Every guest-visible decision — values, compares, conversions, output
// formatting, and modeled op cycles — delegates to the primary system, so
// attaching the sanitizer never perturbs architectural results or the
// deterministic cycle model: sanitizer-on is bit- and cycle-identical to
// sanitizer-off. The VM feeds per-instruction PC attribution through
// SetSite from its one trace executor, which retires every emulated
// instruction: trap deliveries with their coalesced runs, patch sites and
// superblock thunks.
package sanitize

import (
	"math"

	"fpvm/internal/arith"
	"fpvm/internal/fpu"
	"fpvm/internal/telemetry"
)

// Defaults applied by New/Reset when an Options field is zero.
const (
	// DefaultPrec is the high-precision shadow's mantissa size in bits.
	DefaultPrec = 128
	// DefaultThresholdBits is the lost-bits flagging threshold, which
	// doubles as the exponent-drop cutoff for counting a cancellation.
	DefaultThresholdBits = 20.0
	// DefaultMaxOutputs caps certify-mode output recording.
	DefaultMaxOutputs = 4096
)

// Options configure a Sanitizer.
type Options struct {
	// Primary is the architectural arithmetic system the guest actually
	// runs under (nil = arith.Vanilla{}). A VM armed through
	// fpvm.Config.Sanitize sets it to Config.System.
	Primary arith.System
	// Prec is the high-precision shadow's mantissa bits (0 = DefaultPrec).
	Prec uint
	// ThresholdBits flags a blame site when a value carrying at least this
	// many shadow-verified lost bits reaches a consumption boundary, and
	// counts an exponent drop of at least this many bits as a catastrophic
	// cancellation (0 = DefaultThresholdBits).
	ThresholdBits float64
	// Certify records every guest output's interval enclosure and
	// certifies that it contains the architectural result. The proof is
	// sound for primaries whose per-op rounding stays within the
	// enclosures' outward widening — i.e. Vanilla (IEEE binary64).
	Certify bool
	// MaxOutputs caps certify-mode recording (0 = DefaultMaxOutputs);
	// outputs beyond the cap are dropped and fail the certification.
	MaxOutputs int
}

// Sanitizer holds the shadow bookkeeping of one guest run. It is reusable:
// pooled sessions Reset it between runs instead of reallocating.
type Sanitizer struct {
	primary    arith.System
	hi         arith.System
	ivs        arith.IntervalSystem
	prec       uint
	threshold  float64
	certify    bool
	maxOutputs int

	// Current attribution site, fed by the VM's trace executor via SetSite
	// immediately before each instruction's Apply calls.
	idx int
	pc  uint64

	telem *telemetry.Collector

	sites     map[uint64]*Site
	samples   uint64
	truncated bool

	outputs        []Output
	outputsDropped uint64
}

// New builds a sanitizer.
func New(o Options) *Sanitizer {
	s := &Sanitizer{sites: make(map[uint64]*Site)}
	s.Reset(o)
	return s
}

// Reset rearms the sanitizer for a fresh run with new options, keeping its
// allocations warm (the pooled-session path).
func (s *Sanitizer) Reset(o Options) {
	if o.Primary == nil {
		o.Primary = arith.Vanilla{}
	}
	if o.Prec == 0 {
		o.Prec = DefaultPrec
	}
	if o.ThresholdBits == 0 {
		o.ThresholdBits = DefaultThresholdBits
	}
	if o.MaxOutputs == 0 {
		o.MaxOutputs = DefaultMaxOutputs
	}
	s.primary = o.Primary
	if s.hi == nil || s.prec != o.Prec {
		s.hi = arith.NewMPFR(o.Prec)
	}
	s.prec = o.Prec
	s.threshold = o.ThresholdBits
	s.certify = o.Certify
	s.maxOutputs = o.MaxOutputs
	s.idx, s.pc = 0, 0
	s.telem = nil
	clear(s.sites)
	s.samples = 0
	s.truncated = false
	s.outputs = s.outputs[:0]
	s.outputsDropped = 0
}

// System returns the wrapping arithmetic system to run the guest under.
// fpvm.Config.Sanitize wires this automatically.
func (s *Sanitizer) System() arith.System { return system{s} }

// SetSite tells the sanitizer which instruction is about to retire, so the
// Apply calls it observes are attributed to the right PC — including
// superblock multi-retire, where the VM calls SetSite once per thunk.
func (s *Sanitizer) SetSite(idx int, pc uint64) { s.idx, s.pc = idx, pc }

// BindTelemetry mirrors per-site observations into the telemetry site
// table, so -topsites ranks sanitizer columns alongside trap counts.
func (s *Sanitizer) BindTelemetry(c *telemetry.Collector) { s.telem = c }

// Truncate stops observation: shadows reseed from primary values and no
// further samples or certify outputs are recorded. The guest run itself is
// unharmed — this is the typed degradation the sanitize fault seam fires.
func (s *Sanitizer) Truncate() { s.truncated = true }

// Truncated reports whether observation was cut short.
func (s *Sanitizer) Truncated() bool { return s.truncated }

// Threshold returns the effective lost-bits flagging threshold.
func (s *Sanitizer) Threshold() float64 { return s.threshold }

// triple is one shadowed FP value: the primary (architectural) value, the
// high-precision shadow, the interval enclosure, the catastrophic-
// cancellation depth of the value's lineage, and the blame site — the PC
// whose operation last amplified this value's error (blameIdx < 0 when the
// value has no FP-op origin, e.g. a fresh constant).
type triple struct {
	p     arith.Value
	hi    arith.Value
	iv    arith.Interval
	depth uint8

	blameIdx  int32
	blamePC   uint64
	blameLost float64
}

// seed builds a triple whose shadows restart from the primary value: the
// enclosure collapses to a point and the high-precision shadow forgets any
// divergence. Used after demote/re-promote boundaries, for foreign values,
// and for everything once the report is truncated.
func (s *Sanitizer) seed(p arith.Value) triple {
	pf := s.primary.ToFloat64(p)
	return triple{p: p, hi: s.hi.FromFloat64(pf), iv: arith.Interval{Lo: pf, Hi: pf}, blameIdx: -1}
}

// system is the wrapping arith.System. All architectural semantics and
// OpCycles delegate to the primary; Apply additionally advances the
// shadows and records observations.
type system struct{ s *Sanitizer }

var _ arith.System = system{}

// Name identifies the wrapper and its primary, e.g. "sanitize(vanilla)".
func (w system) Name() string { return "sanitize(" + w.s.primary.Name() + ")" }

// tr unwraps a shadowed value; a foreign value (constructed outside the
// wrapper, e.g. by a test poking the arena) is adopted as its own shadow.
func (w system) tr(v arith.Value) triple {
	if t, ok := v.(triple); ok {
		return t
	}
	return w.s.seed(v)
}

// Apply computes the primary result, advances both shadows, and observes
// the step. After truncation only the primary is computed.
func (w system) Apply(op arith.Op, args ...arith.Value) arith.Value {
	s := w.s
	var pa, ha, ia [3]arith.Value
	var depth uint8
	// Inherit the worst-lost argument's blame: if this op does not amplify
	// the error further, the flag (if any) belongs to that earlier site.
	blameIdx, blamePC, blameLost := int32(-1), uint64(0), 0.0
	n := len(args)
	for i := 0; i < n; i++ {
		t := w.tr(args[i])
		pa[i], ha[i], ia[i] = t.p, t.hi, t.iv
		if t.depth > depth {
			depth = t.depth
		}
		if t.blameIdx >= 0 && t.blameLost > blameLost {
			blameIdx, blamePC, blameLost = t.blameIdx, t.blamePC, t.blameLost
		}
	}
	p := s.primary.Apply(op, pa[:n]...)
	if s.truncated {
		return s.seed(p)
	}
	h := s.hi.Apply(op, ha[:n]...)
	iv := contain(s.primary.ToFloat64(p), widen(op, s.ivs.Apply(op, ia[:n]...).(arith.Interval)))
	out := triple{p: p, hi: h, iv: iv, depth: depth,
		blameIdx: blameIdx, blamePC: blamePC, blameLost: blameLost}
	s.observe(op, pa[:n], &out)
	return out
}

// FromFloat64 promotes an architectural double. The high-precision shadow
// starts from the double itself (so a lossy primary's promotion rounding is
// part of what the sanitizer measures); the enclosure starts as the point
// interval of the primary value, preserving the containment invariant.
func (w system) FromFloat64(v float64) arith.Value {
	s := w.s
	p := s.primary.FromFloat64(v)
	if s.truncated {
		return s.seed(p)
	}
	pf := s.primary.ToFloat64(p)
	return triple{p: p, hi: s.hi.FromFloat64(v), iv: arith.Interval{Lo: pf, Hi: pf}, blameIdx: -1}
}

// ToFloat64 demotes the primary value.
func (w system) ToFloat64(v arith.Value) float64 { return w.s.primary.ToFloat64(w.tr(v).p) }

// FromInt64 promotes an integer; the shadow conversion is exact even where
// the primary rounds (|i| >= 2^53).
func (w system) FromInt64(i int64) arith.Value {
	s := w.s
	p := s.primary.FromInt64(i)
	if s.truncated {
		return s.seed(p)
	}
	pf := s.primary.ToFloat64(p)
	return triple{p: p, hi: s.hi.FromInt64(i), iv: arith.Interval{Lo: pf, Hi: pf}, blameIdx: -1}
}

// ToInt64 converts the primary value with the primary's semantics. The
// conversion is a consumption boundary: the integer escapes into guest
// control flow and addressing, so a still-lossy value flags its blame site.
func (w system) ToInt64(v arith.Value, rc fpu.RoundingControl) (int64, bool) {
	t := w.tr(v)
	w.s.boundary(t)
	return w.s.primary.ToInt64(t.p, rc)
}

// Compare orders primary values: control flow under the sanitizer is the
// primary system's control flow, exactly. A compare is a consumption
// boundary — a branch taken on a lossy value flags the value's blame site.
func (w system) Compare(a, b arith.Value) (int, bool) {
	ta, tb := w.tr(a), w.tr(b)
	w.s.boundary(ta)
	w.s.boundary(tb)
	return w.s.primary.Compare(ta.p, tb.p)
}

// IsNaN reports the primary value's NaN-ness.
func (w system) IsNaN(v arith.Value) bool { return w.s.primary.IsNaN(w.tr(v).p) }

// Format renders the primary value exactly as the unwrapped system would,
// so guest output is bit-identical with the sanitizer attached. In certify
// mode the output's enclosure is recorded on the way through (Format is
// the VM's output boundary).
func (w system) Format(v arith.Value) string {
	t := w.tr(v)
	w.s.boundary(t)
	w.s.noteOutput(t)
	return w.s.primary.Format(t.p)
}

// OpCycles delegates to the primary system: observation never charges
// modeled cycles, enabled or not.
func (w system) OpCycles(op arith.Op) uint64 { return w.s.primary.OpCycles(op) }

// widen adds two extra ulps of outward slack to ops whose primary kernels
// are not correctly rounded (libm transcendentals, pow, hypot). The basic
// ops (+, -, ×, ÷, sqrt, fma) and the exact ops (min/max/abs/neg/rounding)
// keep the interval system's own 1-ulp outward rounding, which already
// covers a correctly rounded primary.
func widen(op arith.Op, i arith.Interval) arith.Interval {
	switch op {
	case arith.OpSin, arith.OpCos, arith.OpTan, arith.OpAsin, arith.OpAcos,
		arith.OpAtan, arith.OpAtan2, arith.OpExp, arith.OpLog, arith.OpLog2,
		arith.OpLog10, arith.OpPow, arith.OpHypot:
		ninf, pinf := math.Inf(-1), math.Inf(1)
		if !math.IsNaN(i.Lo) {
			i.Lo = math.Nextafter(math.Nextafter(i.Lo, ninf), ninf)
		}
		if !math.IsNaN(i.Hi) {
			i.Hi = math.Nextafter(math.Nextafter(i.Hi, pinf), pinf)
		}
	}
	return i
}

// contain enforces the enclosure's containment invariant after each step:
// the interval must hold the architectural result, or admit it cannot. A
// NaN primary has no real enclosure (interval domain clamps — sqrt, log,
// asin — keep the interval real while the primary went NaN), so it poisons
// the enclosure; downstream certification then reads indeterminate instead
// of claiming bounds that exclude the actual value. The final branch is
// defensive: interval ops are containment-sound for contained non-NaN
// inputs, but if that ever breaks, the honest certificate is "nothing
// proven", not a violation report against our own arithmetic.
func contain(pf float64, i arith.Interval) arith.Interval {
	if math.IsNaN(i.Lo) || math.IsNaN(i.Hi) {
		return i
	}
	if math.IsNaN(pf) || !(i.Lo <= pf && pf <= i.Hi) {
		return arith.Interval{Lo: math.NaN(), Hi: math.NaN()}
	}
	return i
}

// blameSlack is how many extra lost bits an operation must introduce, over
// the worst of its arguments, before blame moves to the operation itself.
// Below the slack the loss just flowed through and the original site keeps
// the blame.
const blameSlack = 1.0

// observe records one retired operation at the current site and resolves
// the result's blame.
func (s *Sanitizer) observe(op arith.Op, pargs []arith.Value, out *triple) {
	pf := s.primary.ToFloat64(out.p)
	hf := s.hi.ToFloat64(out.hi)
	rel := RelError(math.Float64bits(hf), math.Float64bits(pf))
	lost := LostBits(rel)

	// Blame resolution: this op amplified the error beyond what any
	// argument carried in, so flags for this value (should it reach a
	// boundary still lossy) point here. Otherwise the inherited blame from
	// Apply stands, updated to the value's current loss — a compensation
	// step that heals the error correctly lowers what the boundary sees.
	if out.blameIdx < 0 || lost > out.blameLost+blameSlack {
		out.blameIdx, out.blamePC = int32(s.idx), s.pc
	}
	out.blameLost = lost

	drop := 0
	if op == arith.OpAdd || op == arith.OpSub {
		drop = expDrop(s.primary.ToFloat64(pargs[0]), s.primary.ToFloat64(pargs[1]), pf)
	}
	cancel := float64(drop) >= s.threshold
	if cancel && out.depth < math.MaxUint8 {
		out.depth++
	}

	st := s.sites[s.pc]
	if st == nil {
		st = &Site{PC: s.pc, Op: op.String()}
		s.sites[s.pc] = st
	}
	s.samples++
	st.Samples++
	st.sumLost += lost
	if lost > st.MaxLostBits {
		st.MaxLostBits = lost
	}
	if drop > st.MaxCancelBits {
		st.MaxCancelBits = drop
	}
	if cancel {
		st.Cancellations++
		if int(out.depth) > st.Depth {
			st.Depth = int(out.depth)
		}
	}
	if wdt := out.iv.Width(); !math.IsNaN(wdt) && wdt > st.MaxWidth {
		st.MaxWidth = wdt
	}
	if s.telem != nil {
		s.telem.SanitizeNote(s.idx, s.pc, lost, true, false)
	}
}

// boundary checks a value at a guest-observable consumption point (output
// formatting, FP compare, FP→int conversion). A value still carrying at
// least the threshold's worth of lost bits flags its blame site — the PC
// where the loss was introduced, not where it was consumed.
func (s *Sanitizer) boundary(t triple) {
	if s.truncated || t.blameIdx < 0 || t.blameLost < s.threshold {
		return
	}
	st := s.sites[t.blamePC]
	if st == nil {
		// The blame site must have been observed to assign blame, but stay
		// defensive: a flag is worth a row even if the op name is unknown.
		st = &Site{PC: t.blamePC, Op: "?"}
		s.sites[t.blamePC] = st
	}
	st.Flagged = true
	if t.blameLost > st.FlaggedLost {
		st.FlaggedLost = t.blameLost
	}
	if s.telem != nil {
		s.telem.SanitizeNote(int(t.blameIdx), t.blamePC, t.blameLost, false, true)
	}
}

// expDrop is NSan's catastrophic-cancellation heuristic for r = a ± b: how
// many exponent bits the result magnitude drops below the larger operand's.
// A drop of d means d leading bits cancelled, so the result's top d bits of
// accuracy are inherited from whatever rounding error the operands carried.
func expDrop(a, b, r float64) int {
	if a == 0 || b == 0 ||
		math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return 0
	}
	if r == 0 {
		return 53 // complete cancellation (exact, but total)
	}
	if math.IsNaN(r) || math.IsInf(r, 0) {
		return 0
	}
	big := math.Abs(a)
	if ab := math.Abs(b); ab > big {
		big = ab
	}
	d := math.Ilogb(big) - math.Ilogb(math.Abs(r))
	switch {
	case d < 0:
		return 0
	case d > 53:
		return 53
	}
	return d
}

// noteOutput records a certify-mode output enclosure.
func (s *Sanitizer) noteOutput(t triple) {
	if !s.certify || s.truncated {
		return
	}
	if len(s.outputs) >= s.maxOutputs {
		s.outputsDropped++
		return
	}
	s.outputs = append(s.outputs, certified(s.primary.ToFloat64(t.p), t.iv))
}
