package vsa

import (
	"fmt"
	"sort"

	"fpvm/internal/isa"
)

// Site is an instruction the analysis flagged.
type Site struct {
	Addr   uint64
	Inst   isa.Inst
	Reason string
}

// Report is the analysis result: the sources (FP stores), the sinks that
// must be patched with correctness traps, and precision diagnostics.
type Report struct {
	Sources    []Site
	Sinks      []Site
	Externals  []Site // callext sites (demoted at run time by the wrapper)
	Imprecise  bool   // the analysis fell back to "taint everything"
	Iterations int    // fixpoint iterations executed
	Insts      int    // instructions analyzed
	TaintedIvs int    // distinct tainted memory intervals
}

// Analyze runs the value-set analysis on prog and classifies its
// instructions. maxIters bounds the fixpoint (0 = default 10000 worklist
// steps); exceeding it forces the conservative result.
func Analyze(prog *isa.Program, maxIters int) (*Report, error) {
	if maxIters <= 0 {
		// The paper calls the static costs of this approach "huge" (Fig 3);
		// a generous default keeps million-instruction binaries precise.
		maxIters = 2_000_000
	}
	insts, err := prog.Disassemble()
	if err != nil {
		return nil, fmt.Errorf("vsa: %w", err)
	}
	idxByAddr := make(map[uint64]int, len(insts))
	for i, in := range insts {
		idxByAddr[in.Addr] = i
	}

	a := &analyzer{
		prog:      prog,
		insts:     insts,
		idxByAddr: idxByAddr,
		in:        make([]regState, len(insts)),
		visits:    make([]int, len(insts)),
	}
	for i := range a.in {
		a.in[i] = botState()
	}
	a.collectThresholds()
	rep := &Report{Insts: len(insts)}

	// Phase 1: fixpoint with no memory knowledge.
	a.fixpoint(rep, maxIters)
	a.narrow(12)

	// Collect the conservative set of store targets from phase-1 states
	// (which over-approximate phase 2), then re-run the fixpoint letting
	// loads read provably read-only static data. A capped phase 1 may
	// under-approximate the store set, so it disables the refinement.
	a.collectStores()
	if !a.storeAll && !a.capped {
		a.useROData = true
		for i := range a.in {
			a.in[i] = botState()
		}
		for i := range a.visits {
			a.visits[i] = 0
		}
		// Phase 2 re-discovers any structural imprecision (indirect
		// branches) itself; phase-1 convergence noise is superseded.
		a.imprecise = false
		a.fixpoint(rep, maxIters)
		a.narrow(12)
		rep.Imprecise = a.imprecise
	}

	a.classify(rep)
	return rep, nil
}

// regState is the abstract value of each integer register plus the
// provenance of the current RFLAGS (which register was last compared with
// which constant), used to refine ranges along conditional branch edges —
// the standard VSA trick that keeps loop counters bounded.
type regState struct {
	regs [isa.NumIntRegs]AbsVal

	cmpValid    bool
	cmpReg      uint8
	cmpConst    int64
	cmpRhsReg   uint8 // valid when cmpRhsIsReg
	cmpRhsIsReg bool
}

func botState() regState {
	var s regState
	for i := range s.regs {
		s.regs[i] = Bot()
	}
	return s
}

func entryState() regState {
	var s regState
	for i := range s.regs {
		s.regs[i] = Top()
	}
	s.regs[isa.RegSP] = StackBase()
	return s
}

// isBot reports whether the state is unreached (⊥ everywhere). SP is never
// ⊥ on any reachable path, so it serves as the sentinel.
func (s regState) isBot() bool { return s.regs[isa.RegSP].IsBot() }

func (s regState) join(t regState) regState {
	if s.isBot() {
		return t
	}
	if t.isBot() {
		return s
	}
	r := s
	for i := range r.regs {
		r.regs[i] = s.regs[i].Join(t.regs[i])
	}
	r.joinCmp(t)
	return r
}

func (r *regState) joinCmp(t regState) {
	if !r.cmpValid || !t.cmpValid || r.cmpReg != t.cmpReg ||
		r.cmpRhsIsReg != t.cmpRhsIsReg ||
		(r.cmpRhsIsReg && r.cmpRhsReg != t.cmpRhsReg) ||
		(!r.cmpRhsIsReg && r.cmpConst != t.cmpConst) {
		r.cmpValid = false
	}
}

func (s regState) widenWith(t regState, thresholds []int64) regState {
	if s.isBot() {
		return t
	}
	if t.isBot() {
		return s
	}
	r := s
	for i := range r.regs {
		r.regs[i] = s.regs[i].widenTo(t.regs[i], thresholds)
	}
	r.joinCmp(t)
	return r
}

// collectThresholds harvests the constants compared against registers: the
// natural loop bounds. Widening snaps growing ranges to these instead of
// jumping straight to ±∞ ("widening with thresholds"), which keeps stores
// indexed by inner-loop counters bounded even when the bounding compare
// sits in an outer loop.
func (a *analyzer) collectThresholds() {
	seen := map[int64]bool{0: true}
	for _, in := range a.insts {
		if in.Op == isa.OpCmp && len(in.Ops) == 2 && in.Ops[1].Kind == isa.KindImm {
			c := in.Ops[1].Imm
			seen[c-1] = true
			seen[c] = true
			seen[c+1] = true
		}
	}
	for v := range seen {
		a.thresholds = append(a.thresholds, v)
	}
	sort.Slice(a.thresholds, func(i, j int) bool { return a.thresholds[i] < a.thresholds[j] })
}

func (s regState) equal(t regState) bool {
	if s.cmpValid != t.cmpValid ||
		(s.cmpValid && (s.cmpReg != t.cmpReg || s.cmpConst != t.cmpConst)) {
		return false
	}
	for i := range s.regs {
		if !s.regs[i].Equal(t.regs[i]) {
			return false
		}
	}
	return true
}

// refineBranch narrows the compared register on a conditional edge.
func (s regState) refineBranch(op isa.Op, taken bool) regState {
	if !s.cmpValid {
		return s
	}
	v := s.regs[s.cmpReg]
	if v.kind != vRange || v.base != baseNone {
		return s
	}
	// Against a register: use the bound of the right-hand side's range
	// (e.g. "cmp r2, r3; jl" taken means r2 <= max(r3) - 1).
	var cLo, cHi int64
	if s.cmpRhsIsReg {
		rv := s.regs[s.cmpRhsReg]
		if rv.kind != vRange || rv.base != baseNone {
			return s
		}
		cLo, cHi = rv.lo, rv.hi
	} else {
		cLo, cHi = s.cmpConst, s.cmpConst
	}
	lo, hi := v.lo, v.hi
	apply := func(nlo, nhi int64) {
		if nlo > lo {
			lo = nlo
		}
		if nhi < hi {
			hi = nhi
		}
	}
	cond := op
	if !taken {
		// Complement the condition on the fallthrough edge.
		switch op {
		case isa.OpJl:
			cond = isa.OpJge
		case isa.OpJle:
			cond = isa.OpJg
		case isa.OpJg:
			cond = isa.OpJle
		case isa.OpJge:
			cond = isa.OpJl
		case isa.OpJe:
			cond = isa.OpJne
		case isa.OpJne:
			cond = isa.OpJe
		default:
			return s
		}
	}
	switch cond {
	case isa.OpJl:
		apply(minAddr, cHi-1)
	case isa.OpJle:
		apply(minAddr, cHi)
	case isa.OpJg:
		apply(cLo+1, maxAddr)
	case isa.OpJge:
		apply(cLo, maxAddr)
	case isa.OpJe:
		apply(cLo, cHi)
	case isa.OpJne:
		return s // punctured ranges are not representable
	default:
		return s
	}
	if lo > hi {
		// Contradiction: the edge is infeasible; keep a degenerate value.
		lo, hi = cLo, cHi
	}
	nv := Range(lo, hi, v.stride)
	s.regs[s.cmpReg] = nv
	return s
}

type analyzer struct {
	prog       *isa.Program
	insts      []isa.Inst
	idxByAddr  map[uint64]int
	in         []regState
	visits     []int
	imprecise  bool
	thresholds []int64 // widening thresholds from cmp-immediate constants
	capped     bool    // fixpoint hit the iteration budget

	// Read-only data knowledge (phase 2): loads from data-segment regions
	// that no store can reach return the value range of the initial bytes,
	// exactly as angr's VSA reads the binary's static data (§4.2).
	stores    *IntervalSet // all store targets (any width, any kind)
	storeAll  bool         // a store with unknown address was seen
	useROData bool
}

const widenAfter = 12

// fixpoint propagates register states along the CFG until stable.
func (a *analyzer) fixpoint(rep *Report, maxIters int) {
	if len(a.insts) == 0 {
		return
	}
	work := []int{}
	if i, ok := a.idxByAddr[a.prog.Entry]; ok {
		a.in[i] = entryState()
		work = append(work, i)
	}
	steps := 0
	for len(work) > 0 {
		steps++
		if steps > maxIters {
			a.imprecise = true
			a.capped = true
			break
		}
		i := work[len(work)-1]
		work = work[:len(work)-1]
		out := a.transfer(a.insts[i], a.in[i])
		in := a.insts[i]
		isCond := in.Op.IsBranch() && in.Op != isa.OpJmp
		for _, succ := range a.successors(i) {
			edge := out
			if isCond {
				// The branch target is the taken edge; the textually next
				// instruction is the fallthrough.
				taken := !(a.insts[succ].Addr == in.Addr+uint64(in.Len))
				edge = out.refineBranch(in.Op, taken)
			}
			var merged regState
			a.visits[succ]++
			// Widen only along back edges (loop heads): every cycle
			// contains one, so termination is preserved, while values
			// that merely flow forward through a loop stay precise.
			if succ <= i && a.visits[succ] > widenAfter {
				merged = a.in[succ].widenWith(edge, a.thresholds)
			} else {
				merged = a.in[succ].join(edge)
			}
			if !merged.equal(a.in[succ]) {
				a.in[succ] = merged
				work = append(work, succ)
			}
		}
	}
	rep.Iterations = steps
	if a.imprecise {
		rep.Imprecise = true
	}
}

// narrow runs decreasing iterations from the widened post-fixpoint: each
// instruction's in-state is recomputed as the join of its predecessors'
// (edge-refined) out-states, recovering the precision that widening gave up
// inside bounded loops. Starting from a sound over-approximation, each
// round remains sound.
func (a *analyzer) narrow(rounds int) {
	type edge struct {
		from   int
		taken  bool
		cond   isa.Op
		isCond bool
	}
	preds := make([][]edge, len(a.insts))
	for i := range a.insts {
		in := a.insts[i]
		isCond := in.Op.IsBranch() && in.Op != isa.OpJmp
		for _, succ := range a.successors(i) {
			taken := isCond && a.insts[succ].Addr != in.Addr+uint64(in.Len)
			preds[succ] = append(preds[succ], edge{i, taken, in.Op, isCond})
		}
	}
	entryIdx, hasEntry := a.idxByAddr[a.prog.Entry]
	for r := 0; r < rounds; r++ {
		for i := range a.insts {
			if len(preds[i]) == 0 {
				continue // entry or call-target-only nodes keep their state
			}
			merged := botState()
			for _, e := range preds[i] {
				out := a.transfer(a.insts[e.from], a.in[e.from])
				if e.isCond {
					out = out.refineBranch(e.cond, e.taken)
				}
				merged = merged.join(out)
			}
			if hasEntry && i == entryIdx {
				merged = merged.join(entryState())
			}
			a.in[i] = merged
		}
	}
}

// successors returns the CFG edges out of instruction i.
func (a *analyzer) successors(i int) []int {
	in := a.insts[i]
	next, hasNext := a.idxByAddr[in.Addr+uint64(in.Len)]
	var out []int

	target := func() (int, bool) {
		if len(in.Ops) != 1 || in.Ops[0].Kind != isa.KindImm {
			// Indirect branch: the analysis cannot follow it.
			a.imprecise = true
			return 0, false
		}
		t, ok := a.idxByAddr[uint64(in.Ops[0].Imm)]
		if !ok {
			a.imprecise = true
		}
		return t, ok
	}

	switch {
	case in.Op == isa.OpJmp:
		if t, ok := target(); ok {
			out = append(out, t)
		}
	case in.Op.IsBranch(): // conditional
		if t, ok := target(); ok {
			out = append(out, t)
		}
		if hasNext {
			out = append(out, next)
		}
	case in.Op == isa.OpCall:
		if t, ok := target(); ok {
			out = append(out, t)
		}
		if hasNext {
			out = append(out, next)
		}
	case in.Op == isa.OpRet, in.Op == isa.OpHalt:
		// No static successors: callee state does not flow back (the
		// call's fallthrough edge models the return, with clobbering).
	default:
		if hasNext {
			out = append(out, next)
		}
	}
	return out
}

// transfer applies one instruction's effect to the register state.
func (a *analyzer) transfer(in isa.Inst, s regState) regState {
	val := func(o isa.Operand) AbsVal {
		switch o.Kind {
		case isa.KindIntReg:
			return s.regs[o.Reg]
		case isa.KindImm:
			return Const(o.Imm)
		default:
			return Top() // memory contents are unknown to the analysis
		}
	}
	setReg := func(o isa.Operand, v AbsVal) {
		if o.Kind == isa.KindIntReg {
			s.regs[o.Reg] = v
			if s.cmpValid && (s.cmpReg == o.Reg ||
				(s.cmpRhsIsReg && s.cmpRhsReg == o.Reg)) {
				s.cmpValid = false // a compared register was overwritten
			}
		}
	}

	// Track which register/constant pair the flags describe.
	switch in.Op {
	case isa.OpCmp:
		switch {
		case in.Ops[0].Kind == isa.KindIntReg && in.Ops[1].Kind == isa.KindImm:
			s.cmpValid = true
			s.cmpReg = in.Ops[0].Reg
			s.cmpConst = in.Ops[1].Imm
			s.cmpRhsIsReg = false
		case in.Ops[0].Kind == isa.KindIntReg && in.Ops[1].Kind == isa.KindIntReg:
			s.cmpValid = true
			s.cmpReg = in.Ops[0].Reg
			s.cmpRhsReg = in.Ops[1].Reg
			s.cmpRhsIsReg = true
		default:
			s.cmpValid = false
		}
	case isa.OpTest, isa.OpAdd, isa.OpSub, isa.OpImul, isa.OpAnd, isa.OpOr,
		isa.OpXor, isa.OpShl, isa.OpShr, isa.OpSar, isa.OpNeg, isa.OpNot,
		isa.OpInc, isa.OpDec, isa.OpUcomisd, isa.OpComisd:
		s.cmpValid = false
	}

	switch in.Op {
	case isa.OpMov:
		if in.Ops[1].Kind == isa.KindMem {
			setReg(in.Ops[0], a.roLoad(in.Ops[1], s))
		} else {
			setReg(in.Ops[0], val(in.Ops[1]))
		}
	case isa.OpLea:
		setReg(in.Ops[0], a.memAddr(in.Ops[1], s))
	case isa.OpAdd:
		setReg(in.Ops[0], val(in.Ops[0]).add(val(in.Ops[1])))
	case isa.OpSub:
		setReg(in.Ops[0], val(in.Ops[0]).sub(val(in.Ops[1])))
	case isa.OpInc:
		setReg(in.Ops[0], val(in.Ops[0]).add(Const(1)))
	case isa.OpDec:
		setReg(in.Ops[0], val(in.Ops[0]).sub(Const(1)))
	case isa.OpImul:
		if c, ok := val(in.Ops[1]).ConstValue(); ok {
			setReg(in.Ops[0], val(in.Ops[0]).mulConst(c))
		} else {
			setReg(in.Ops[0], Top())
		}
	case isa.OpShl:
		if c, ok := val(in.Ops[1]).ConstValue(); ok {
			setReg(in.Ops[0], val(in.Ops[0]).shlConst(c))
		} else {
			setReg(in.Ops[0], Top())
		}
	case isa.OpXor:
		// xor r, r is the idiomatic zero.
		if in.Ops[0].Kind == isa.KindIntReg && in.Ops[1].Kind == isa.KindIntReg &&
			in.Ops[0].Reg == in.Ops[1].Reg {
			setReg(in.Ops[0], Const(0))
		} else {
			setReg(in.Ops[0], Top())
		}
	case isa.OpNeg:
		setReg(in.Ops[0], Const(0).sub(val(in.Ops[0])))
	case isa.OpAnd:
		// Masking with a non-negative constant bounds the result: the
		// idiom NAS IS uses to clamp bucket indices (key & (MAX-1)).
		if c, ok := val(in.Ops[1]).ConstValue(); ok && c >= 0 {
			setReg(in.Ops[0], Range(0, c, 1))
		} else {
			setReg(in.Ops[0], Top())
		}
	case isa.OpOr, isa.OpNot, isa.OpShr, isa.OpSar, isa.OpIdiv,
		isa.OpCvtsd2si, isa.OpCvttsd2si, isa.OpCycles:
		setReg(in.Ops[0], Top())
	case isa.OpPush:
		s.regs[isa.RegSP] = s.regs[isa.RegSP].sub(Const(8))
	case isa.OpPop:
		setReg(in.Ops[0], Top())
		s.regs[isa.RegSP] = s.regs[isa.RegSP].add(Const(8))
	case isa.OpCall:
		// The fallthrough edge models the return: assume a well-behaved
		// callee (balanced stack) but clobber every other register.
		sp := s.regs[isa.RegSP]
		for i := range s.regs {
			s.regs[i] = Top()
		}
		s.regs[isa.RegSP] = sp
		s.cmpValid = false
	}
	return s
}

// memAddr evaluates a memory operand's effective address abstractly.
func (a *analyzer) memAddr(o isa.Operand, s regState) AbsVal {
	addr := Const(int64(o.Disp))
	if o.Base != isa.RegNone {
		addr = addr.add(s.regs[o.Base])
	}
	if o.Index != isa.RegNone {
		addr = addr.add(s.regs[o.Index].mulConst(int64(o.Scale)))
	}
	return addr
}

// classify performs the source/sink pass of §4.2 using the fixpoint states.
func (a *analyzer) classify(rep *Report) {
	taint := &IntervalSet{}
	if a.imprecise {
		taint.TaintAll()
	}

	// Pass 1: sources — every FP store taints its address range.
	for i, in := range a.insts {
		width := int64(8)
		if in.Op.IsPacked() {
			width = 16
		}
		if (in.Op.IsFPMove() || in.Op.IsFPArith()) && len(in.Ops) > 0 &&
			in.Ops[0].Kind == isa.KindMem {
			addr := a.memAddr(in.Ops[0], a.in[i])
			rep.Sources = append(rep.Sources, Site{in.Addr, in, "fp-store"})
			a.taintRange(taint, addr, width)
		}
	}

	// Pass 2: sinks — integer reads of tainted memory, plus FP bitwise ops.
	for i, in := range a.insts {
		switch {
		case in.Op.IsFPBitwise():
			rep.Sinks = append(rep.Sinks, Site{in.Addr, in, "fp-bitwise"})
			continue
		case in.Op == isa.OpCallext:
			rep.Externals = append(rep.Externals, Site{in.Addr, in, "external-call"})
			continue
		case in.Op.IsFPArith() || in.Op.IsFPMove():
			continue // FP world: boxes are welcome there
		}
		reads := isa.IntReadMemOperands(&in)
		if in.Op == isa.OpPop || in.Op == isa.OpRet {
			// Implicit stack read at [sp]: an integer pop of a spilled
			// FP box is exactly the Figure 6 scenario.
			reads = append(reads, isa.Mem(isa.RegSP, 0))
		}
		for _, o := range reads {
			addr := a.memAddr(o, a.in[i])
			if a.mayReadTaint(taint, addr, 8) {
				rep.Sinks = append(rep.Sinks, Site{in.Addr, in, "int-load"})
				break
			}
		}
	}
	sort.Slice(rep.Sinks, func(i, j int) bool { return rep.Sinks[i].Addr < rep.Sinks[j].Addr })
	rep.TaintedIvs = taint.Len()
	rep.Imprecise = rep.Imprecise || taint.All()
}

// taintRange taints the addresses an abstract address may denote, writing
// `width` bytes at each.
func (a *analyzer) taintRange(taint *IntervalSet, addr AbsVal, width int64) {
	if addr.kind != vRange {
		taint.TaintAll()
		return
	}
	if addr.hi-addr.lo > 1<<32 {
		taint.TaintAll() // degenerate widened range
		return
	}
	taint.add(addr.base, addr.lo, addr.hi+width)
}

// mayReadTaint reports whether reading width bytes at addr may hit taint.
func (a *analyzer) mayReadTaint(taint *IntervalSet, addr AbsVal, width int64) bool {
	if taint.All() {
		return true
	}
	if addr.kind != vRange {
		// Unknown address: must assume the worst — unless no FP store
		// exists anywhere, in which case there is nothing to alias.
		return taint.Len() > 0
	}
	return taint.intersects(addr.base, addr.lo, addr.hi+width)
}

// collectStores records every store target interval using current states.
func (a *analyzer) collectStores() {
	a.stores = &IntervalSet{}
	for i, in := range a.insts {
		s := a.in[i]
		record := func(o isa.Operand, width int64) {
			addr := a.memAddr(o, s)
			if addr.kind != vRange {
				a.storeAll = true
				return
			}
			// Huge (widened) ranges are kept as intervals rather than
			// poisoning everything: loads from regions provably outside
			// them remain eligible for the read-only-data refinement.
			a.stores.add(addr.base, addr.lo, addr.hi+width)
		}
		switch {
		case (in.Op.IsFPMove() || in.Op.IsFPArith() || in.Op.IsFPBitwise()) &&
			len(in.Ops) > 0 && in.Ops[0].Kind == isa.KindMem:
			w := int64(8)
			if in.Op.IsPacked() {
				w = 16
			}
			record(in.Ops[0], w)
		case in.Op == isa.OpPush, in.Op == isa.OpCall:
			// Stack writes stay within the stack region.
			a.stores.add(baseStack, minAddr, 0)
		default:
			for i, o := range in.Ops {
				if o.Kind == isa.KindMem && i == 0 && writesFirstOperand(in.Op) {
					record(o, 8)
				}
			}
		}
	}
}

// writesFirstOperand reports whether the integer op writes through Ops[0].
func writesFirstOperand(op isa.Op) bool {
	switch op {
	case isa.OpMov, isa.OpAdd, isa.OpSub, isa.OpImul, isa.OpIdiv, isa.OpAnd,
		isa.OpOr, isa.OpXor, isa.OpNot, isa.OpNeg, isa.OpShl, isa.OpShr,
		isa.OpSar, isa.OpInc, isa.OpDec, isa.OpPop:
		return true
	}
	return false
}

// roLoad returns the value range of an 8-byte load when the address range
// lies wholly inside never-written static data; otherwise ⊤.
func (a *analyzer) roLoad(o isa.Operand, s regState) AbsVal {
	if !a.useROData || a.storeAll {
		return Top()
	}
	addr := a.memAddr(o, s)
	if addr.kind != vRange || addr.base != baseNone {
		return Top()
	}
	base := int64(a.prog.DataBase)
	if base == 0 {
		base = 0x1000
	}
	lo, hi := addr.lo, addr.hi
	if lo < base || hi+8 > base+int64(len(a.prog.Data)) {
		return Top()
	}
	if a.stores.intersects(baseNone, lo, hi+8) {
		return Top()
	}
	// Cap the scan so degenerate ranges stay cheap.
	stride := addr.stride
	if stride <= 0 {
		stride = 8
	}
	if (hi-lo)/stride > 1<<16 {
		return Top()
	}
	var out AbsVal = Bot()
	for p := lo; p <= hi; p += stride {
		off := p - base
		v := int64(leU64data(a.prog.Data[off:]))
		out = out.Join(Const(v))
		if out.IsTop() {
			return out
		}
	}
	return out
}

func leU64data(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
