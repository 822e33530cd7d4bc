package machine

import (
	"errors"
	"fmt"
	"sync"

	"fpvm/internal/isa"
)

// Image is everything derived from one program that does not change while
// the program runs: the dense predecoded instruction stream, its addr→index
// table, each instruction's modeled cycle charge and execution class, the
// §4.2 correctness-site table, and the traces the JIT tier has published
// for it. It is the ahead-of-time half of the paper's pipeline (§4.2 runs
// once per binary), built once per program content and shared read-only by
// every machine that loads it: guests fetch from the immutable stream, and a
// machine's per-run state (patch handlers, installed sites) lives in its own
// side-table slots, never here. The trace table is the one part that grows
// after construction; it is publish-once and safe for concurrent use.
type Image struct {
	prog    *isa.Program
	insts   []isa.Inst
	addrIdx []int32    // code address → index into insts; -1 off-boundary
	info    []instInfo // charge and class per instruction

	// sites is the correctness-site table; analyzed reports whether one was
	// supplied at all (an analyzed program may have none).
	sites    []imageSite
	analyzed bool

	mu     sync.Mutex
	traces []PublishedTrace // append-only, in publication order
}

// instInfo is what dispatch needs to know about an instruction beyond the
// instruction itself, computed once at predecode: the modeled cycles its
// native execution charges and the class exec switches on.
type instInfo struct {
	charge uint32
	class  execClass
}

// execClass is the arm of exec an instruction runs in. The FP classes and
// branches have arms of their own; the hot integer forms (the operand kinds
// fixed, so the arm reads and writes operands with no kind switch) cover
// most native retirement; classInt is every other instruction, including
// each one whose operand kinds fault.
type execClass uint8

const (
	classInt execClass = iota
	classFPArith
	classFPMove
	classFPBitwise
	classBranch
	classMovRR // mov r, r
	classMovRI // mov r, $imm
	classMovRM // mov r, [m]
	classMovMR // mov [m], r
	classIncR  // inc r
	classAddRR // add r, r
	classAddRI // add r, $imm
	classAndRI // and r, $imm
	classCmpRR // cmp r, r
	classCmpRI // cmp r, $imm
)

// classify returns in's execution class.
func classify(in *isa.Inst) execClass {
	switch op := in.Op; {
	case op.IsFPArith():
		return classFPArith
	case op.IsFPMove():
		return classFPMove
	case op.IsFPBitwise():
		return classFPBitwise
	case op.IsBranch():
		return classBranch
	}
	var k0, k1 isa.OperandKind
	if len(in.Ops) > 0 {
		k0 = in.Ops[0].Kind
	}
	if len(in.Ops) > 1 {
		k1 = in.Ops[1].Kind
	}
	type form struct {
		op     isa.Op
		k0, k1 isa.OperandKind
	}
	switch (form{in.Op, k0, k1}) {
	case form{isa.OpMov, isa.KindIntReg, isa.KindIntReg}:
		return classMovRR
	case form{isa.OpMov, isa.KindIntReg, isa.KindImm}:
		return classMovRI
	case form{isa.OpMov, isa.KindIntReg, isa.KindMem}:
		return classMovRM
	case form{isa.OpMov, isa.KindMem, isa.KindIntReg}:
		return classMovMR
	case form{isa.OpInc, isa.KindIntReg, isa.KindNone}:
		return classIncR
	case form{isa.OpAdd, isa.KindIntReg, isa.KindIntReg}:
		return classAddRR
	case form{isa.OpAdd, isa.KindIntReg, isa.KindImm}:
		return classAddRI
	case form{isa.OpAnd, isa.KindIntReg, isa.KindImm}:
		return classAndRI
	case form{isa.OpCmp, isa.KindIntReg, isa.KindIntReg}:
		return classCmpRR
	case form{isa.OpCmp, isa.KindIntReg, isa.KindImm}:
		return classCmpRI
	}
	return classInt
}

// imageSite is one correctness site: the dense index of the instruction it
// guards and the site id its trap reports.
type imageSite struct {
	idx int
	id  int64
}

// PublishedTrace is one compiled trace on an image: its entry index and the
// JIT tier's compiled form. The machine never reads Trace; the tier that
// publishes it owns its type.
type PublishedTrace struct {
	Entry int
	Trace any
}

// NewImage predecodes prog into an immutable image. sites is the correctness
// site table (instruction address → site id) that loaders install with
// InstallSites; nil means the program was not analyzed, which a loader that
// requires the table can detect with Analyzed. Every site must sit on an
// instruction boundary. The image is the only source of a machine's
// correctness sites, so they are fixed for every run over it.
func NewImage(prog *isa.Program, sites map[uint64]int64) (*Image, error) {
	if prog == nil {
		return nil, errors.New("machine: nil program")
	}
	im := &Image{prog: prog, addrIdx: make([]int32, len(prog.Code))}
	for i := range im.addrIdx {
		im.addrIdx[i] = -1
	}
	for addr := uint64(0); addr < uint64(len(prog.Code)); {
		in, err := isa.Decode(prog.Code, addr)
		if err != nil {
			return nil, fmt.Errorf("machine: predecode: %w", err)
		}
		im.addrIdx[addr] = int32(len(im.insts))
		im.insts = append(im.insts, in)
		addr += uint64(in.Len)
	}
	im.info = make([]instInfo, len(im.insts))
	for i := range im.insts {
		in := &im.insts[i]
		im.info[i] = instInfo{charge: costModel.charge(in), class: classify(in)}
	}
	if sites == nil {
		return im, nil
	}
	return im.WithSites(sites)
}

// WithSites returns an image of the same program carrying the correctness
// site table sites, the one place a site address is resolved. It shares im's
// predecoded stream, addr→index table and charges, so nothing is decoded
// again, and starts with no published traces. Every site must sit on an
// instruction boundary.
func (im *Image) WithSites(sites map[uint64]int64) (*Image, error) {
	out := &Image{prog: im.prog, insts: im.insts, addrIdx: im.addrIdx, info: im.info,
		analyzed: true, sites: make([]imageSite, 0, len(sites))}
	for addr, id := range sites {
		idx, ok := im.instIndex(addr)
		if !ok {
			return nil, fmt.Errorf("machine: correctness site %#x is not an instruction boundary", addr)
		}
		out.sites = append(out.sites, imageSite{idx, id})
	}
	return out, nil
}

// Program returns the program the image was built from.
func (im *Image) Program() *isa.Program { return im.prog }

// Analyzed reports whether the image carries a correctness-site table.
func (im *Image) Analyzed() bool { return im.analyzed }

// SiteCount returns the number of correctness sites in the image's table.
func (im *Image) SiteCount() int { return len(im.sites) }

func (im *Image) instIndex(addr uint64) (int, bool) {
	if addr >= uint64(len(im.addrIdx)) || im.addrIdx[addr] < 0 {
		return 0, false
	}
	return int(im.addrIdx[addr]), true
}

// PublishTrace records a compiled trace rooted at entry. The first writer
// wins: a later trace for the same entry was compiled from the same immutable
// instructions, so replacing it would only churn memory under readers. It
// reports whether t was stored.
func (im *Image) PublishTrace(entry int, t any) bool {
	im.mu.Lock()
	defer im.mu.Unlock()
	for _, p := range im.traces {
		if p.Entry == entry {
			return false
		}
	}
	im.traces = append(im.traces, PublishedTrace{entry, t})
	return true
}

// Traces returns the traces published so far. The slice is append-only
// shared storage: the caller must not modify it, and later publications do
// not appear in it.
func (im *Image) Traces() []PublishedTrace {
	im.mu.Lock()
	defer im.mu.Unlock()
	return im.traces[:len(im.traces):len(im.traces)]
}
