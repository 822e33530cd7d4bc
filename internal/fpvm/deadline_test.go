package fpvm

import (
	"bytes"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"fpvm/internal/arith"
	"fpvm/internal/asm"
	"fpvm/internal/machine"
)

// trapLoopSrc is an endless loop whose every trip traps: 1/3 raises PE,
// and the NaN-boxed quotient makes the next divide trap on IE.
const trapLoopSrc = `
	movsd f0, =1.0
	movsd f1, =3.0
	mov r0, $0
loop:
	divsd f0, f1
	inc r0
	jmp loop
`

// TestDeadlineStopsAtNextTrap fires the preemption flag in the middle of a
// checkpoint interval of a trapping Vanilla loop, in plain trap-and-emulate
// and with traces entered through patch slots. The run must stop at the
// next trap delivery or patch-slot entry, not at the next checkpoint, and
// leave exactly the state, cycles and stats that an instruction budget
// ending at the same count leaves.
func TestDeadlineStopsAtNextTrap(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"trap", Config{}},
		{"seqlen16-jit8", Config{MaxSequenceLen: 16, JITThreshold: 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			load := func() (*machine.Machine, *VM) {
				m, err := machine.New(asm.MustAssemble(trapLoopSrc), &bytes.Buffer{})
				if err != nil {
					t.Fatal(err)
				}
				cfg := tc.cfg
				cfg.System = arith.Vanilla{}
				return m, Attach(m, cfg)
			}

			dm, dvm := load()
			var cancel atomic.Bool
			dm.Preempt = &cancel
			var be *machine.BudgetError
			if err := dm.Run(3*machine.DefaultPreemptEvery + 1234); !errors.As(err, &be) {
				t.Fatalf("unfired run = %v, want *BudgetError", err)
			}
			fired := dm.Stats.Instructions
			cancel.Store(true)
			err := dm.Run(0)
			var de *machine.DeadlineError
			if !errors.As(err, &de) {
				t.Fatalf("fired run = %v, want *DeadlineError", err)
			}
			n := dm.Stats.Instructions
			if de.Instructions != n || de.RIP != dm.RIP {
				t.Errorf("DeadlineError{RIP %#x, Instructions %d}, machine at %#x after %d", de.RIP, de.Instructions, dm.RIP, n)
			}
			// The loop traps every three instructions; a checkpoint is
			// DefaultPreemptEvery away.
			if n-fired > 3 {
				t.Errorf("stopped %d instructions after the flag fired, want at most 3 (the next trap)", n-fired)
			}
			if dm.Stats.FPTraps == 0 || (tc.cfg.JITThreshold > 0 && dm.Stats.PatchInvokes == 0) {
				t.Errorf("the loop took %d traps and %d patch entries", dm.Stats.FPTraps, dm.Stats.PatchInvokes)
			}

			bm, bvm := load()
			if err := bm.Run(n); !errors.As(err, &be) {
				t.Fatalf("budget run = %v, want *BudgetError", err)
			}
			if bm.Stats != dm.Stats {
				t.Errorf("machine stats: budget %+v, deadline %+v", bm.Stats, dm.Stats)
			}
			if bm.Cycles != dm.Cycles {
				t.Errorf("cycles: budget %d, deadline %d", bm.Cycles, dm.Cycles)
			}
			if bm.RIP != dm.RIP || bm.R != dm.R || bm.F != dm.F || bm.MXCSR != dm.MXCSR || bm.Flags != dm.Flags {
				t.Error("architectural state differs between budget and deadline truncation")
			}
			if !bytes.Equal(bm.Mem, dm.Mem) {
				t.Error("memory differs between budget and deadline truncation")
			}
			if !reflect.DeepEqual(bvm.Stats, dvm.Stats) {
				t.Errorf("VM stats: budget %+v, deadline %+v", bvm.Stats, dvm.Stats)
			}
		})
	}
}
