package main

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"fpvm/internal/arith"
	"fpvm/internal/fpvm"
	"fpvm/internal/machine"
	"fpvm/internal/patch"
	"fpvm/internal/session"
	"fpvm/internal/workloads"
)

var truncNote = regexp.MustCompile(`deadline exceeded at 0x[0-9a-f]+ after (\d+) instructions`)

// TestTimeoutTruncatesLikeService pins the -timeout contract to the serving
// stack's: both ride the same machine-level deadline checks — every
// machine.DefaultPreemptEvery retired instructions and before each FP-trap
// delivery and patch-slot entry — so a CLI run truncated at a boundary
// harvests bit-identical state — output, instruction count, modeled
// cycles — to a session (the service's run path) canceled at the same
// boundary. A pre-fired session flag stops at the first boundary, Lorenz's
// first FP trap; the CLI's boundary is wall-clock dependent, so the test
// reads it from the truncation note and reruns the CLI (a 1 ns timer almost
// always fires before the first trap) until it stopped there too.
func TestTimeoutTruncatesLikeService(t *testing.T) {
	w, ok := workloads.Get("Lorenz Attractor/")
	if !ok {
		t.Fatal("Lorenz Attractor/ workload missing")
	}
	prog, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	img, err := patch.NewImage(prog)
	if err != nil {
		t.Fatal(err)
	}
	cancel := new(atomic.Bool)
	cancel.Store(true) // pre-fired: the session stops at exactly its first boundary
	res, err := session.New().Run(img, session.Config{
		Config: fpvm.Config{System: arith.Vanilla{}},
		Cancel: cancel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.DeadlineExceeded {
		t.Fatal("session run did not report DeadlineExceeded")
	}
	if res.Instructions == 0 || res.Instructions >= machine.DefaultPreemptEvery || res.Machine.FPTraps != 0 {
		t.Fatalf("pre-fired session stopped after %d instructions and %d traps, want before its first trap", res.Instructions, res.Machine.FPTraps)
	}

	var out, errb bytes.Buffer
	var n uint64
	for attempt := 0; attempt < 5 && n != res.Instructions; attempt++ {
		out.Reset()
		errb.Reset()
		code := Run([]string{
			"-workload", "Lorenz Attractor/", "-arith", "vanilla",
			"-timeout", "1ns", "-stats",
		}, &out, &errb)
		if code != 0 {
			t.Fatalf("-timeout run exited %d, want 0 (deadline degrades, never kills):\n%s", code, errb.String())
		}
		m := truncNote.FindStringSubmatch(errb.String())
		if m == nil {
			t.Fatalf("no truncation note on stderr:\n%s", errb.String())
		}
		if n, err = strconv.ParseUint(m[1], 10, 64); err != nil || n == 0 {
			t.Fatalf("bad truncation boundary %q", m[1])
		}
	}
	if n != res.Instructions {
		t.Fatalf("CLI truncated at %d instructions in every attempt, never at the first boundary %d", n, res.Instructions)
	}
	if !strings.Contains(errb.String(), "instructions:") || !strings.Contains(errb.String(), "cycles:") {
		t.Fatalf("-stats did not print after truncation:\n%s", errb.String())
	}
	if got := out.String(); got != res.Output {
		t.Fatalf("truncated guest output diverged:\nCLI:     %q\nsession: %q", got, res.Output)
	}
	cycles := regexp.MustCompile(`cycles:\s+(\d+)`).FindStringSubmatch(errb.String())
	if cycles == nil {
		t.Fatalf("no cycles line:\n%s", errb.String())
	}
	if c, _ := strconv.ParseUint(cycles[1], 10, 64); c != res.Cycles {
		t.Fatalf("truncated cycle counts diverged: CLI %d, session %d", c, res.Cycles)
	}
}

// TestTimeoutUnfiredIsFree pins the zero-cost contract at the CLI surface:
// a -timeout generous enough to never fire leaves the run bit- and
// cycle-identical to one with no -timeout at all.
func TestTimeoutUnfiredIsFree(t *testing.T) {
	run := func(extra ...string) (string, string) {
		var out, errb bytes.Buffer
		args := append([]string{"-workload", "FBench/", "-arith", "vanilla", "-stats"}, extra...)
		if code := Run(args, &out, &errb); code != 0 {
			t.Fatalf("run %v exited %d:\n%s", extra, code, errb.String())
		}
		return out.String(), errb.String()
	}
	baseOut, baseStats := run()
	armedOut, armedStats := run("-timeout", "1h")
	if baseOut != armedOut {
		t.Fatalf("armed-but-unfired -timeout changed guest output:\nbase:  %q\narmed: %q", baseOut, armedOut)
	}
	if baseStats != armedStats {
		t.Fatalf("armed-but-unfired -timeout changed stats:\nbase:\n%s\narmed:\n%s", baseStats, armedStats)
	}
}
