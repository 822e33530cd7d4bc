// Package trap models the delivery path of a floating point exception from
// the hardware to a handler, with cycle costs calibrated to the measurements
// quoted in the FPVM paper (Figure 9's overhead breakdown and Figure 14's
// user-level vs kernel-level delivery comparison).
//
// In the real system the path is: the FPU raises a precise fault → microcode
// saves state and vectors to the kernel → the kernel builds a signal frame
// and returns to the user-level SIGFPE handler → the handler (FPVM) runs →
// sigreturn unwinds back. Section 6 of the paper explores cheaper paths: a
// kernel-module FPVM (skip the kernel→user leg) and a hypothetical
// user→user "pipeline interrupt" (~100 cycles, cf. TSX abort measurements).
//
// The machine simulator charges these costs on every delivered trap, so
// per-trap cost breakdowns and whole-program slowdowns are deterministic.
package trap

import "fmt"

// Kind selects a delivery path for FP (and correctness) traps.
type Kind uint8

const (
	// DeliverUserSignal is the stock Linux path used by the FPVM
	// prototype: hardware fault → kernel → SIGFPE → user handler →
	// sigreturn. This is the baseline of Figures 9 and 12.
	DeliverUserSignal Kind = iota
	// DeliverKernel models FPVM as a kernel module (§6.1): the handler
	// runs at kernel level, skipping signal-frame construction and the
	// kernel→user→kernel round trip.
	DeliverKernel
	// DeliverUserToUser models the hypothetical same-privilege "pipeline
	// interrupt" delivery of §6.2 (RISC-V "N"-extension style), measured
	// by the authors at TSX-abort-like costs.
	DeliverUserToUser
	// DeliverDirectCall models the §5.3 remark that correctness traps
	// could be replaced by direct call instructions to the FPVM entry
	// point, avoiding trap delivery entirely.
	DeliverDirectCall
)

func (k Kind) String() string {
	switch k {
	case DeliverUserSignal:
		return "user-signal"
	case DeliverKernel:
		return "kernel"
	case DeliverUserToUser:
		return "user-to-user"
	case DeliverDirectCall:
		return "direct-call"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// CostProfile holds per-machine delivery costs in cycles. The three concrete
// profiles below stand in for the paper's three test machines; their ratios
// (kernel delivery 7–30× cheaper than user delivery) follow Figure 14.
type CostProfile struct {
	Name string

	// HWEntry is the microcode cost of taking the precise fault:
	// pipeline flush, state save, vectoring.
	HWEntry uint64
	// KernelDispatch covers kernel entry, exception routing, and
	// signal-queue work.
	KernelDispatch uint64
	// UserFrame covers building the signal frame, entering the user
	// handler, and the eventual sigreturn round trip.
	UserFrame uint64
	// HWReturn is the iret-style cost of resuming the faulting context.
	HWReturn uint64
	// KernelRT is the measured round-trip cost of delivering to a
	// kernel-level handler (Figure 14's right-hand column): vectoring,
	// minimal state save, handler dispatch, and return, with no signal
	// frame or privilege round trip. The user/kernel ratios of the three
	// profiles follow the paper's 7–30×.
	KernelRT uint64
	// UserToUser is the cost of the hypothetical pipeline-interrupt
	// delivery (entry + exit), measured ~100 cycles on TSX hardware.
	UserToUser uint64
	// DirectCall is the cost of a patched-in call to the FPVM entry point.
	DirectCall uint64
}

// Predefined machine profiles. R815 is the primary testbed (4× AMD Opteron
// 6272); Dell7220 and R730xd are the two newer Xeon machines of Figure 12.
var (
	R815 = CostProfile{
		Name:           "R815",
		HWEntry:        1800,
		KernelDispatch: 3200,
		UserFrame:      3000,
		HWReturn:       1100,
		KernelRT:       1300, // user/kernel ≈ 7× (AMD 6272 in Figure 14)
		UserToUser:     110,
		DirectCall:     35,
	}
	Dell7220 = CostProfile{
		Name:           "7220",
		HWEntry:        900,
		KernelDispatch: 1700,
		UserFrame:      1900,
		HWReturn:       600,
		KernelRT:       340, // user/kernel ≈ 15×
		UserToUser:     100,
		DirectCall:     25,
	}
	R730xd = CostProfile{
		Name:           "R730xd",
		HWEntry:        1100,
		KernelDispatch: 2000,
		UserFrame:      2200,
		HWReturn:       700,
		KernelRT:       200, // user/kernel ≈ 30×
		UserToUser:     100,
		DirectCall:     30,
	}
)

// Profiles lists the predefined machine profiles in paper order.
func Profiles() []*CostProfile {
	return []*CostProfile{&R815, &Dell7220, &R730xd}
}

// EntryCycles returns the cycles charged before the handler runs.
func (p *CostProfile) EntryCycles(k Kind) uint64 {
	switch k {
	case DeliverUserSignal:
		return p.HWEntry + p.KernelDispatch + p.UserFrame
	case DeliverKernel:
		return p.KernelRT - p.KernelRT/3
	case DeliverUserToUser:
		return p.UserToUser / 2
	case DeliverDirectCall:
		return p.DirectCall / 2
	default:
		return 0
	}
}

// ExitCycles returns the cycles charged after the handler returns.
func (p *CostProfile) ExitCycles(k Kind) uint64 {
	switch k {
	case DeliverUserSignal:
		return p.HWReturn
	case DeliverKernel:
		return p.KernelRT / 3
	case DeliverUserToUser:
		return p.UserToUser - p.UserToUser/2
	case DeliverDirectCall:
		return p.DirectCall - p.DirectCall/2
	default:
		return 0
	}
}

// RoundTripCycles returns the full deliver-and-return cost with an empty
// handler, the quantity Figure 14 tabulates.
func (p *CostProfile) RoundTripCycles(k Kind) uint64 {
	return p.EntryCycles(k) + p.ExitCycles(k)
}

// Breakdown reports the hardware-attributed and kernel-attributed parts of
// a user-signal delivery, the two bottom bars of the Figure 9 stacks.
func (p *CostProfile) Breakdown() (hardware, kernel uint64) {
	return p.HWEntry + p.HWReturn, p.KernelDispatch + p.UserFrame
}

// Stats accumulates trap-delivery accounting for one run.
type Stats struct {
	Delivered   uint64 // number of traps delivered
	EntryCycles uint64 // total cycles spent entering handlers
	ExitCycles  uint64 // total cycles spent returning
}

// Record charges one delivery round trip to the stats and returns its entry
// and exit cycles. The machine calls it once per deliverTrap, so under
// sequence emulation a whole coalesced run of instructions is charged
// exactly one round trip — that amortization is the entire point of
// coalescing.
func (s *Stats) Record(p *CostProfile, k Kind) (entry, exit uint64) {
	entry, exit = p.EntryCycles(k), p.ExitCycles(k)
	s.Delivered++
	s.EntryCycles += entry
	s.ExitCycles += exit
	return entry, exit
}

// TotalCycles returns all cycles attributed to trap delivery.
func (s *Stats) TotalCycles() uint64 { return s.EntryCycles + s.ExitCycles }
