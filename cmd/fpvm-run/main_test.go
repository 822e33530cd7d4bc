package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCLI drives the binary's real entry point in-process.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = Run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func writeAsm(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.s")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const smokeAsm = `
	movsd f0, =1.5
	movsd f1, =0.25
	addsd f0, f1
	mulsd f1, f0
	outf f0
	halt
`

func TestRunList(t *testing.T) {
	code, out, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, want := range []string{"Lorenz Attractor/", "FBench/", "Three-Body/"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q:\n%s", want, out)
		}
	}
}

func TestRunAsmUnderEachMode(t *testing.T) {
	asm := writeAsm(t, smokeAsm)
	for _, args := range [][]string{
		{"-asm", asm},                      // native
		{"-asm", asm, "-arith", "vanilla"}, // FPVM trap-and-emulate
		{"-asm", asm, "-arith", "mpfr", "-prec", "100"},
		{"-asm", asm, "-arith", "vanilla", "-patch-mode"},
		{"-asm", asm, "-arith", "vanilla", "-seqlen", "16"},
		{"-asm", asm, "-spy"},
		{"-asm", asm, "-arith", "vanilla", "-delivery", "kernel"},
		{"-asm", asm, "-arith", "vanilla", "-stats"},
	} {
		code, out, stderr := runCLI(t, args...)
		if code != 0 {
			t.Errorf("%v exited %d: %s", args, code, stderr)
			continue
		}
		if !strings.Contains(out, "1.75") {
			t.Errorf("%v: program output missing expected value 1.75:\n%s", args, out)
		}
	}
}

func TestRunStatsOutput(t *testing.T) {
	asm := writeAsm(t, smokeAsm)
	code, _, stderr := runCLI(t, "-asm", asm, "-arith", "vanilla", "-stats")
	if code != 0 {
		t.Fatalf("exited %d: %s", code, stderr)
	}
	for _, want := range []string{"instructions:", "cycles:", "fp traps:", "gc:"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("-stats output missing %q:\n%s", want, stderr)
		}
	}
}

// TestPatchModeHonoursTiers: under -patch-mode a patched site that would
// trap enters traces as a delivered trap does, so -seqlen and -jit take
// effect: the stats report sequences and superblocks, and the modeled
// cycles move away from plain trap-and-patch.
func TestPatchModeHonoursTiers(t *testing.T) {
	base := []string{"-workload", "Lorenz Attractor/", "-arith", "vanilla", "-patch-mode", "-stats"}
	cycles := func(stderr string) string {
		for _, line := range strings.Split(stderr, "\n") {
			if strings.HasPrefix(line, "cycles:") {
				return strings.TrimSpace(strings.TrimPrefix(line, "cycles:"))
			}
		}
		t.Fatalf("-stats output has no cycles line:\n%s", stderr)
		return ""
	}
	code, plainOut, plainErr := runCLI(t, base...)
	if code != 0 {
		t.Fatalf("plain -patch-mode exited %d: %s", code, plainErr)
	}
	code, tierOut, tierErr := runCLI(t, append(base, "-seqlen", "16", "-jit", "8")...)
	if code != 0 {
		t.Fatalf("-patch-mode -seqlen 16 -jit 8 exited %d: %s", code, tierErr)
	}
	for _, want := range []string{"seqemu:", "jit:"} {
		if !strings.Contains(tierErr, want) {
			t.Errorf("-patch-mode -seqlen 16 -jit 8 -stats missing %q:\n%s", want, tierErr)
		}
	}
	if cycles(tierErr) == cycles(plainErr) {
		t.Errorf("-seqlen 16 -jit 8 left patch-mode cycles at %s", cycles(plainErr))
	}
	if tierOut != plainOut {
		t.Errorf("the tiers changed the output:\nplain: %q\ntiers: %q", plainOut, tierOut)
	}
}

func TestRunErrors(t *testing.T) {
	asm := writeAsm(t, smokeAsm)
	tests := []struct {
		name string
		args []string
		code int
	}{
		{"no input", nil, 1},
		{"unknown workload", []string{"-workload", "nope"}, 1},
		{"unreadable asm", []string{"-asm", "/nonexistent/prog.s"}, 1},
		{"unknown arith", []string{"-asm", asm, "-arith", "quaternion"}, 1},
		{"unknown delivery", []string{"-asm", asm, "-delivery", "telepathy"}, 1},
		{"native seqlen", []string{"-asm", asm, "-seqlen", "16"}, 1},
		{"spy sanitize", []string{"-asm", asm, "-spy", "-sanitize"}, 1},
		{"bad flag", []string{"-no-such-flag"}, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			code, _, stderr := runCLI(t, tt.args...)
			if code != tt.code {
				t.Errorf("args %v exited %d, want %d (stderr: %s)",
					tt.args, code, tt.code, stderr)
			}
			if code != 0 && stderr == "" {
				t.Errorf("args %v failed silently", tt.args)
			}
		})
	}
}

func TestRunTopSitesReport(t *testing.T) {
	code, out, stderr := runCLI(t,
		"-workload", "FBench/", "-arith", "mpfr", "-topsites", "5")
	if code != 0 {
		t.Fatalf("exited %d: %s", code, stderr)
	}
	if !strings.Contains(out, "trap telemetry:") {
		t.Fatalf("-topsites output missing ranking header:\n%s", out)
	}
	for _, col := range []string{"pc", "cycles", "meanrun", "flags"} {
		if !strings.Contains(out, col) {
			t.Errorf("-topsites table missing column %q", col)
		}
	}
}

func TestRunTraceJSONL(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "out.jsonl")
	code, _, stderr := runCLI(t,
		"-workload", "FBench/", "-arith", "mpfr", "-trace", trace)
	if code != 0 {
		t.Fatalf("exited %d: %s", code, stderr)
	}
	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	kinds := map[string]int{}
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("trace line %d is not valid JSON: %v", n+1, err)
		}
		ev, _ := m["ev"].(string)
		if n == 0 && ev != "trace-header" {
			t.Fatalf("first trace line ev = %q, want trace-header", ev)
		}
		kinds[ev]++
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n < 2 {
		t.Fatalf("trace has %d lines, want header plus events", n)
	}
	for _, want := range []string{"trap-enter", "trap-exit"} {
		if kinds[want] == 0 {
			t.Errorf("trace has no %s events (kinds: %v)", want, kinds)
		}
	}
	if kinds["trap-enter"] != kinds["trap-exit"] {
		t.Errorf("unbalanced trap events: %d enter vs %d exit",
			kinds["trap-enter"], kinds["trap-exit"])
	}
}

func TestRunTraceUnwritable(t *testing.T) {
	code, _, stderr := runCLI(t,
		"-workload", "FBench/", "-arith", "vanilla",
		"-trace", "/nonexistent-dir/out.jsonl")
	if code != 1 {
		t.Fatalf("unwritable -trace exited %d, want 1 (stderr: %s)", code, stderr)
	}
}

func TestRunOracleSingleWorkload(t *testing.T) {
	code, out, stderr := runCLI(t, "-oracle", "-workload", "FBench")
	if code != 0 {
		t.Fatalf("oracle exited %d: %s", code, stderr)
	}
	for _, want := range []string{"PASS", "bit-identical under virtualized vanilla"} {
		if !strings.Contains(out, want) {
			t.Errorf("oracle output missing %q:\n%s", want, out)
		}
	}
}

// TestOracleAndChaosHonourVMFlags pins that -oracle and -chaos run under the
// same VM configuration as a single run: the oracle's sanitized runs report
// their sanitizer (and certification) summaries, and the chaos sweep
// coalesces under -seqlen.
func TestOracleAndChaosHonourVMFlags(t *testing.T) {
	code, out, stderr := runCLI(t, "-oracle", "-workload", "FBench", "-certify")
	if code != 0 {
		t.Fatalf("-oracle -certify exited %d: %s", code, stderr)
	}
	// Vanilla plus the two shadow systems each report a sanitized run.
	if n := strings.Count(out, "sanitize: "); n != 3 {
		t.Errorf("-oracle -certify printed %d sanitizer summaries, want 3:\n%s", n, out)
	}
	if !strings.Contains(out, "certify: ") {
		t.Errorf("-oracle -certify printed no certification summary:\n%s", out)
	}

	code, out, stderr = runCLI(t, "-chaos", "-workload", "example:quickstart/harmonic",
		"-seeds", "1", "-seqlen", "16")
	if code != 0 {
		t.Fatalf("-chaos -seqlen exited %d: %s", code, stderr)
	}
	if !strings.Contains(out, "chaos: seqemu") {
		t.Errorf("-chaos -seqlen 16 coalesced nothing:\n%s", out)
	}
}
