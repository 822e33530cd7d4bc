// Package lattice_test is the configuration-lattice invariance harness.
// Every optional mechanism promises to leave the guest alone, which is
// NSan's rule that a shadow must not perturb the primary. The harness states
// those promises once, as a table of invariants over a lattice of
// configurations, and checks them on a pairwise covering set of rows and
// programs; FuzzLattice explores the rest of the lattice.
package lattice_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"fpvm/internal/arith"
	"fpvm/internal/asm"
	"fpvm/internal/faultinject"
	"fpvm/internal/fpvm"
	"fpvm/internal/isa"
	"fpvm/internal/machine"
	"fpvm/internal/oracle"
	"fpvm/internal/patch"
	"fpvm/internal/posit"
	"fpvm/internal/progen"
	"fpvm/internal/sanitize"
	"fpvm/internal/session"
	"fpvm/internal/telemetry"
	"fpvm/internal/trap"
)

// dims are the axes of the lattice: the fpvm.Config knobs, the session's
// own fields, the machine modes, the store choice and session reuse, in the
// order of the d* constants. Value 0 is the mechanism absent.
var dims = []struct {
	name   string
	values []string
}{
	{"system", []string{"vanilla", "mpfr200", "posit32"}},
	{"seqlen", []string{"0", "16"}},
	{"jit", []string{"0", "8"}},
	{"sbcache", []string{"none", "warm"}},
	{"gcevery", []string{"default", "4096"}},
	{"softcap", []string{"0", "2048"}},
	{"hardcap", []string{"0", "512"}},
	{"inject", []string{"none", "errors"}},
	{"sanitize", []string{"off", "on"}},
	{"telemetry", []string{"off", "on"}},
	{"cancel", []string{"nil", "armed"}},
	{"maxinst", []string{"default", "half"}},
	{"memsize", []string{"default", "256k"}},
	{"nopatch", []string{"false", "true"}},
	{"delivery", []string{"signal", "kernel", "u2u"}},
	{"patchmode", []string{"off", "on"}},
	{"store", []string{"typed", "boxed"}},
	{"session", []string{"fresh", "reused"}},
}

const (
	dSystem = iota
	dSeq
	dJIT
	dWarm
	dGC
	dSoftCap
	dHardCap
	dInject
	dSanitize
	dTelemetry
	dCancel
	dMaxInst
	dMem
	dNoPatch
	dDelivery
	dPatchMode
	dStore
	dReuse
	numDims
)

// row is one point of the lattice: a value index per dimension.
type row [numDims]int

func (r row) String() string {
	var parts []string
	for d, v := range r {
		if v != 0 || d == dSystem {
			parts = append(parts, dims[d].name+"="+dims[d].values[v])
		}
	}
	return strings.Join(parts, " ")
}

func (r row) vanilla() bool { return r[dSystem] == 0 }

// outputFixed reports whether moving r's degradations keeps its output: r
// degrades nothing, or runs Vanilla (no value changes) without a budget.
func (r row) outputFixed() bool {
	return r[dInject]+r[dHardCap] == 0 || r.vanilla() && r[dMaxInst] == 0
}

// with returns r with each listed dimension set to its neutral value.
func (r row) with(neutral ...int) row {
	for _, d := range neutral {
		r[d] = 0
	}
	return r
}

// relation is the set of harvest fields two runs must agree on.
type relation uint8

const (
	sameOutput  relation = 1 << iota // output, stop reason and demoted final state
	sameRaw                          // final state with its NaN-boxes
	sameVM                           // non-cycle VM counters, sanitizer samples per PC
	sameMachine                      // non-cycle machine counters
	sameCycles                       // cycles and every counter with its cycles

	sameAll = sameOutput | sameRaw | sameVM | sameMachine | sameCycles
)

// invariant is one row of the invariant table: the runs of r and of
// partner(r) agree on rel wherever applies(r, tg) holds.
type invariant struct {
	name    string
	applies func(r row, tg *target) bool
	partner func(r row) row
	rel     relation
}

// tiersNeutral reports whether the tiers must leave tg's output alone under
// r: under Vanilla always, under another system on curated programs only (a
// trace emulates every step after its entry, also one that natively raises
// nothing and would have stayed an IEEE value).
func tiersNeutral(r row, tg *target) bool {
	return r[dMaxInst] == 0 && r.outputFixed() && (r.vanilla() || !tg.generated)
}

var invariants = []invariant{
	// The sanitizer draws from a fault campaign's stream, moving later faults.
	{"observers change nothing", func(r row, _ *target) bool {
		return (r[dSanitize] != 0 || r[dTelemetry] != 0 || r[dCancel] != 0) && (r[dSanitize] == 0 || r[dInject] == 0)
	}, func(r row) row { return r.with(dSanitize, dTelemetry, dCancel) }, sameAll},
	{"observers under injection keep Vanilla output", func(r row, _ *target) bool {
		return r[dSanitize] != 0 && r[dInject] != 0 && r.outputFixed()
	}, func(r row) row { return r.with(dSanitize, dTelemetry, dCancel) }, sameOutput},
	{"a warm cache changes no output", func(r row, tg *target) bool {
		return r[dWarm] != 0 && tiersNeutral(r, tg)
	}, func(r row) row { return r.with(dWarm) }, sameOutput},
	{"tiers change no output", func(r row, tg *target) bool {
		return (r[dSeq] != 0 || r[dJIT] != 0) && tiersNeutral(r, tg)
	}, func(r row) row { return r.with(dSeq, dJIT, dWarm) }, sameOutput},
	{"the GC schedule changes no output", func(r row, _ *target) bool {
		return (r[dGC] != 0 || r[dSoftCap] != 0) && r.outputFixed()
	}, func(r row) row { return r.with(dGC, dSoftCap) }, sameOutput},
	{"a reused session equals a fresh one", func(r row, _ *target) bool { return r[dReuse] != 0 },
		func(r row) row { return r.with(dReuse) }, sameAll},
	{"patch mode equals trap mode", func(r row, _ *target) bool { return r[dPatchMode] != 0 },
		func(r row) row { return r.with(dPatchMode) }, sameOutput | sameRaw | sameVM},
	{"the boxed adapter equals typed cells", func(r row, _ *target) bool { return r[dStore] != 0 },
		func(r row) row { return r.with(dStore) }, sameAll},
	{"the delivery model changes only cycles", func(r row, _ *target) bool { return r[dDelivery] != 0 },
		func(r row) row { return r.with(dDelivery) }, sameAll &^ sameCycles},
}

// harvest is what a run leaves for the invariants.
type harvest struct {
	out, stop       string // stop is "" for a clean halt, else Run's error
	cycles          uint64
	m               machine.Stats
	vm              fpvm.Stats // GC.LastWall zeroed: host wall clock
	raw, demoted    [32]byte   // final state as left, and with every box demoted
	leaked          int        // shadow cells alive after demotion and a GC
	sites           map[uint64]uint64
	samples, events uint64 // sanitizer samples, telemetry events
	topSites        int
}

func (h harvest) nonCycle() (machine.Stats, fpvm.Stats) {
	m, v := h.m, h.vm
	m.Trap.EntryCycles, m.Trap.ExitCycles = 0, 0
	v.Cycles, v.GC.LastCycles = fpvm.CycleBreakdown{}, 0
	return m, v
}

// compare names the parts of rel on which a and b disagree.
func compare(rel relation, a, b harvest) []string {
	var diffs []string
	check := func(part relation, name string, ok bool) {
		if rel&part != 0 && !ok {
			diffs = append(diffs, name)
		}
	}
	am, av := a.nonCycle()
	bm, bv := b.nonCycle()
	check(sameOutput, "output", a.out == b.out && a.stop == b.stop)
	check(sameOutput, "demoted state", a.demoted == b.demoted)
	check(sameRaw, "raw state", a.raw == b.raw)
	check(sameVM, "vm counters", av == bv)
	check(sameVM, "sanitizer samples per PC", a.sites == nil || b.sites == nil || reflect.DeepEqual(a.sites, b.sites))
	check(sameMachine, "machine counters", am == bm)
	check(sameCycles, "cycles", a.cycles == b.cycles && a.m == b.m && a.vm == b.vm)
	return diffs
}

// target is one program of the lattice with its native reference runs, one
// per memory size.
type target struct {
	name      string
	generated bool // a progen program rather than a curated one
	oracle    oracle.Target
	prog      *isa.Program
	img       *machine.Image // shared by every run without a warm cache
	native    [2]harvest
}

// convProgram reaches every cell path outside plain arithmetic: a trapping
// cvtsi2sd, cvttsd2si and ucomisd of boxed values, and boxed output.
const convProgram = `
	mov r1, $9007199254740993 ; 2^53 + 1
	cvtsi2sd f0, r1           ; PE: traps, boxed result
	movsd f1, =3.0
	divsd f0, f1
	cvttsd2si r2, f0
	ucomisd f0, f1
	outf f0
	movsd f2, =1.0
	divsd f2, f1
	ucomisd f2, f0
	outf f2
	halt
`

// buildTargets builds the tier-1 programs once: the 16 oracle targets,
// convProgram and three generated loop programs.
var buildTargets = sync.OnceValues(func() ([]*target, error) {
	ts := oracle.AllTargets()
	if len(ts) < 16 {
		return nil, fmt.Errorf("expected at least 16 oracle targets, have %d", len(ts))
	}
	ts = append(ts, oracle.Target{Name: "conversions", Build: func() (*isa.Program, error) {
		return asm.Assemble(convProgram)
	}})
	for _, seed := range progen.Seeds()[:3] {
		ts = append(ts, progenTarget(seed))
	}
	var tgs []*target
	for _, ot := range ts {
		tg, err := newTarget(ot)
		if err != nil {
			return nil, err
		}
		tgs = append(tgs, tg)
	}
	return tgs, nil
})

func targets(t testing.TB) []*target {
	tgs, err := buildTargets()
	if err != nil {
		t.Fatal(err)
	}
	return tgs
}

func progenTarget(seed int64) oracle.Target {
	src := progen.FPLoopSource(rand.New(rand.NewSource(seed)), 40, 24)
	return oracle.Target{Name: fmt.Sprintf("progen:%d", seed), Build: func() (*isa.Program, error) {
		return asm.Assemble(src)
	}}
}

func newTarget(ot oracle.Target) (*target, error) {
	prog, err := ot.Build()
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", ot.Name, err)
	}
	img, err := patch.NewImage(prog)
	if err != nil {
		return nil, fmt.Errorf("%s: analysis: %w", ot.Name, err)
	}
	tg := &target{name: ot.Name, generated: strings.HasPrefix(ot.Name, "progen:"), oracle: ot, prog: prog, img: img}
	for small := range tg.native {
		var out bytes.Buffer
		m, err := machine.NewFromImage(img, &out, memSize[small])
		if err != nil {
			return nil, err
		}
		if err := m.Run(oracle.DefaultMaxInst); err != nil {
			return nil, fmt.Errorf("%s: native: %w", ot.Name, err)
		}
		tg.native[small] = harvest{out: out.String(), m: m.Stats, demoted: stateHash(m)}
	}
	return tg, nil
}

// memSize maps the memsize dimension to session.Config.MemSize.
var memSize = [2]int{0, 256 << 10}

// stateHash digests the architectural state.
func stateHash(m *machine.Machine) [32]byte {
	h := sha256.New()
	fmt.Fprint(h, m.R, m.F, m.RIP, m.Flags)
	h.Write(m.Mem)
	return [32]byte(h.Sum(nil))
}

// passThrough embeds a System, so the VM keeps its shadows through the
// boxed adapter instead of the system's typed cells.
type passThrough struct{ arith.System }

// injection is the inject dimension's campaign: every error seam, with the
// rare compile seam boosted so it fires.
func injection() faultinject.Config {
	cfg := faultinject.Config{Seed: 7}.UniformRate(0.002)
	cfg.Rate[faultinject.SeamSBCompile] = 0.25
	return cfg
}

// vmConfig maps r's knobs onto an fpvm.Config for sys.
func vmConfig(r row, sys arith.System) fpvm.Config {
	cfg := fpvm.Config{System: sys, MaxSequenceLen: 16 * r[dSeq], JITThreshold: 8 * r[dJIT],
		GCEveryNAllocs: 4096 * uint64(r[dGC]), ArenaSoftCap: 2048 * r[dSoftCap], ArenaHardCap: 512 * r[dHardCap]}
	if r[dSanitize] != 0 {
		cfg.Sanitize = &sanitize.Options{Prec: 64}
	}
	if r[dInject] != 0 {
		cfg.Inject = faultinject.New(injection())
	}
	return cfg
}

// pollute returns the machine and VM of a session that ran another program
// under another system, memory size and set of tiers.
func pollute(t testing.TB) (*machine.Machine, *fpvm.VM) {
	prog, err := progenTarget(100).Build()
	if err != nil {
		t.Fatal(err)
	}
	img, err := patch.NewImage(prog)
	if err != nil {
		t.Fatal(err)
	}
	s := session.New()
	cfg := session.Config{MemSize: 512 << 10, Telemetry: true}
	cfg.Config = fpvm.Config{System: arith.NewMPFR(113), MaxSequenceLen: 4, JITThreshold: 2,
		Sanitize: &sanitize.Options{Prec: 64}}
	if _, err := s.Run(img, cfg); err != nil {
		t.Fatal(err)
	}
	return s.Machine(), s.VM()
}

// run executes tg under r. A warm row runs on an image of its own, after a
// cold run has published its traces there.
func run(t testing.TB, r row, tg *target) harvest {
	if r[dWarm] == 0 {
		return runOn(t, r, tg, tg.img, nil)
	}
	img, err := patch.NewImage(tg.prog)
	if err != nil {
		t.Fatal(err)
	}
	cache := fpvm.NewSBCache()
	runOn(t, r.with(dWarm, dReuse), tg, img, cache)
	h := runOn(t, r, tg, img, cache)
	if s := cache.Stats(); r[dJIT] != 0 && s.Stores > 0 && s.Adopted == 0 {
		t.Errorf("%s: the warm run adopted none of %d published traces", r, s.Stores)
	}
	return h
}

// runOn is the session pipeline spelled out so the machine modes fit in,
// with the oracle's teardown: demote every box, then collect.
func runOn(t testing.TB, r row, tg *target, img *machine.Image, cache *fpvm.SBCache) harvest {
	var out bytes.Buffer
	var m *machine.Machine
	var vm *fpvm.VM
	var err error
	if r[dReuse] != 0 {
		m, vm = pollute(t)
		err = m.Reset(img, &out, memSize[r[dMem]])
	} else {
		m, err = machine.NewFromImage(img, &out, memSize[r[dMem]])
	}
	if err != nil {
		t.Fatal(err)
	}
	m.Delivery = []trap.Kind{trap.DeliverUserSignal, trap.DeliverKernel, trap.DeliverUserToUser}[r[dDelivery]]
	if r[dCancel] != 0 {
		m.Preempt = new(atomic.Bool)
	}
	if r[dNoPatch] == 0 {
		m.InstallSites()
	}
	var telem *telemetry.Collector
	if r[dTelemetry] != 0 {
		telem = telemetry.NewCollector(0)
		m.Telem = telem
	}
	sys := []arith.System{arith.Vanilla{}, arith.NewMPFR(200), arith.NewPosit(posit.Posit32)}[r[dSystem]]
	if r[dStore] != 0 {
		sys = passThrough{sys}
	}
	cfg := vmConfig(r, sys)
	cfg.SBCache = cache
	if vm == nil {
		vm = fpvm.Attach(m, cfg)
	} else {
		vm.Reattach(m, cfg)
	}
	if r[dPatchMode] != 0 {
		vm.PatchAllFPArith()
	}
	budget := uint64(session.DefaultMaxInst)
	if r[dMaxInst] != 0 {
		budget = tg.native[r[dMem]].m.Instructions / 2
	}
	var h harvest
	if err := m.Run(budget); err != nil {
		h.stop = err.Error()
	}
	h.out, h.cycles, h.m, h.vm, h.raw = out.String(), m.Cycles, m.Stats, vm.Stats, stateHash(m)
	h.vm.GC.LastWall = 0
	if san := vm.Sanitizer(); san != nil {
		rep := san.Snapshot()
		h.samples, h.sites = rep.Samples, map[uint64]uint64{}
		for _, s := range rep.Sites {
			h.sites[s.PC] += s.Samples
		}
	}
	if telem != nil {
		h.events, h.topSites = telem.Ring().Total(), len(telem.TopSites(5))
	}
	vm.DetachInjector()
	vm.DemoteAll()
	h.demoted = stateHash(m)
	vm.RunGC()
	h.leaked = vm.Arena.Live()
	return h
}

// check runs tg under r and under every partner the invariant table names,
// and reports each broken invariant.
func check(t *testing.T, r row, tg *target) {
	runs := map[row]harvest{}
	get := func(x row) harvest {
		h, ok := runs[x]
		if !ok {
			h = run(t, x, tg)
			runs[x] = h
		}
		return h
	}
	h, native := get(r), tg.native[r[dMem]]
	if r[dMaxInst] == 0 && h.stop != "" || r[dMaxInst] != 0 && !strings.Contains(h.stop, "budget") {
		t.Fatalf("%s: run stopped with %q", r, h.stop)
	}
	if h.leaked != 0 {
		t.Errorf("%s: %d shadow cells survived teardown", r, h.leaked)
	}
	if r.vanilla() && r[dMaxInst] == 0 && (h.out != native.out || h.demoted != native.demoted) {
		t.Errorf("%s: Vanilla differs from native (output equal %v)", r, h.out == native.out)
	}
	if r[dSanitize] != 0 && h.vm.Emulated > 0 && h.samples == 0 && h.vm.DegradeByCause[telemetry.DegradeSanitize] == 0 {
		t.Errorf("%s: sanitizer observed none of %d emulations", r, h.vm.Emulated)
	}
	if r[dTelemetry] != 0 && h.m.Trap.Delivered > 0 && (h.events == 0 || h.topSites == 0) {
		t.Errorf("%s: telemetry recorded %d events and ranked %d sites", r, h.events, h.topSites)
	}
	if r[dPatchMode] != 0 && h.m.PatchInvokes == 0 && h.m.FPInstructions > 0 {
		t.Errorf("%s: patch mode dispatched no patch site", r)
	}
	for _, inv := range invariants {
		if inv.applies(r, tg) {
			p := inv.partner(r)
			if diffs := compare(inv.rel, h, get(p)); len(diffs) > 0 {
				t.Errorf("%s: %s broken against {%s}: %s differ", r, inv.name, p, strings.Join(diffs, ", "))
			}
		}
	}
	if r.vanilla() && r[dMaxInst] == 0 {
		checkLockstep(t, r, tg)
	}
}

// checkLockstep runs the oracle's lockstep and leak gate on r's VM knobs.
func checkLockstep(t *testing.T, r row, tg *target) {
	o := oracle.Options{Systems: []arith.System{}, NoPatch: r[dNoPatch] != 0, VM: vmConfig(r.with(dInject), arith.Vanilla{})}
	if r[dInject] != 0 {
		cfg := injection()
		o.Inject = &cfg
	}
	if rep, err := oracle.Run(tg.oracle, o); err != nil {
		t.Fatalf("%s: oracle: %v", r, err)
	} else if v := rep.Vanilla; !rep.Ok() || v.LockstepInsts != rep.NativeInstructions || v.ArenaLive != 0 || v.LeakedBoxes != 0 {
		t.Errorf("%s: oracle: first divergence %#x (%s), control %v regs %v flags %v mem %v out %v, lockstep %d of %d, live %d, leaked %d",
			r, v.FirstDivergencePC, v.FirstDivergenceOp, v.ControlDiverged, v.RegsIdentical, v.FlagsIdentical,
			v.MemIdentical, v.OutputIdentical, v.LockstepInsts, rep.NativeInstructions, v.ArenaLive, v.LeakedBoxes)
	}
}

// pairwise returns rows in which every pair of values of every two of the
// dimensions appears. Greedy and seeded: each row starts from the first
// uncovered pair and gives every other dimension a value covering the most
// new pairs.
func pairwise(sizes []int) [][]int {
	type pair struct{ i, vi, j, vj int }
	covered := map[pair]bool{}
	var all []pair
	for i := range sizes {
		for j := i + 1; j < len(sizes); j++ {
			for vi := 0; vi < sizes[i]; vi++ {
				for vj := 0; vj < sizes[j]; vj++ {
					all = append(all, pair{i, vi, j, vj})
				}
			}
		}
	}
	gain := func(row []int, k int) int {
		n := 0
		for o := range sizes {
			i, j := min(k, o), max(k, o)
			if o != k && row[o] >= 0 && !covered[pair{i, row[i], j, row[j]}] {
				n++
			}
		}
		return n
	}
	rng := rand.New(rand.NewSource(1))
	var rows [][]int
	for _, p := range all {
		if covered[p] {
			continue
		}
		row := make([]int, len(sizes))
		for k := range row {
			row[k] = -1
		}
		row[p.i], row[p.j] = p.vi, p.vj
		for _, k := range rng.Perm(len(sizes)) {
			if row[k] >= 0 {
				continue
			}
			best, bestGain := 0, -1
			for _, v := range rng.Perm(sizes[k]) {
				if row[k] = v; gain(row, k) > bestGain {
					best, bestGain = v, gain(row, k)
				}
			}
			row[k] = best
		}
		for i := range sizes {
			for j := i + 1; j < len(sizes); j++ {
				covered[pair{i, row[i], j, row[j]}] = true
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// tier1 returns the tier-1 rows, each led by its program's index: a
// pairwise covering set with the program as one more dimension, plus seeded
// random rows until each invariant applies under each system twice and each
// program has a Vanilla lockstep row with a tier.
func tier1(tgs []*target) [][]int {
	sizes := []int{len(tgs)}
	for _, d := range dims {
		sizes = append(sizes, len(d.values))
	}
	rows := pairwise(sizes)
	rng := rand.New(rand.NewSource(2))
	for _, inv := range invariants {
		for sys := range dims[dSystem].values {
			n := 0
			for _, pr := range rows {
				if r := toRow(pr); r[dSystem] == sys && inv.applies(r, tgs[pr[0]]) {
					n++
				}
			}
			for tries := 0; n < 2 && tries < 1000; tries++ {
				pr := make([]int, len(sizes))
				for k, size := range sizes {
					pr[k] = rng.Intn(size)
				}
				if pr[1+dSystem] = sys; inv.applies(toRow(pr), tgs[pr[0]]) {
					rows, n = append(rows, pr), n+1
				}
			}
		}
	}
	// Every program also runs the oracle lockstep with a tier armed.
	for p := range tgs {
		if !slices.ContainsFunc(rows, func(pr []int) bool {
			r := toRow(pr)
			return pr[0] == p && r.vanilla() && r[dMaxInst] == 0 && r[dSeq]+r[dJIT] > 0
		}) {
			pr := []int{p}
			for _, d := range dims {
				pr = append(pr, rng.Intn(len(d.values)))
			}
			pr[1+dSystem], pr[1+dMaxInst], pr[1+dSeq+p%2] = 0, 0, 1
			rows = append(rows, pr)
		}
	}
	return rows
}

func toRow(pr []int) row {
	var r row
	copy(r[:], pr[1:])
	return r
}

// TestLattice checks the invariant table on the tier-1 rows.
func TestLattice(t *testing.T) {
	tgs := targets(t)
	for i, pr := range tier1(tgs) {
		r, tg := toRow(pr), tgs[pr[0]]
		t.Run(fmt.Sprintf("%02d/%s", i, tg.name), func(t *testing.T) {
			t.Parallel()
			check(t, r, tg)
		})
	}
}

// fuzzMaxFP bounds the tier-1 programs FuzzLattice picks: the fuzz engine
// stops an input after 10 s, and a row may take 16 runs of its program.
const fuzzMaxFP = 60_000

// FuzzLattice checks the invariant table on one row: prog picks a tier-1
// program of at most fuzzMaxFP FP instructions (past them, a loop program
// generated from seed), and point holds the row in mixed radix.
func FuzzLattice(f *testing.F) {
	f.Add(uint8(0), int64(0), uint64(0))
	f.Fuzz(func(t *testing.T, prog uint8, seed int64, point uint64) {
		var light []*target
		for _, tg := range targets(t) {
			if tg.native[0].m.FPInstructions <= fuzzMaxFP {
				light = append(light, tg)
			}
		}
		var tg *target
		if int(prog) < len(light) {
			tg = light[prog]
		} else {
			var err error
			if tg, err = newTarget(progenTarget(seed)); err != nil {
				t.Fatal(err)
			}
		}
		var r row
		for d := range r {
			n := uint64(len(dims[d].values))
			r[d], point = int(point%n), point/n
		}
		check(t, r, tg)
	})
}
