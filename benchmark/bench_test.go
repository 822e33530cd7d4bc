package main

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A one-byte corruption of a checked-in expected file must turn a correct
// run into a failure, so the MPFR-200 reference is known to bite.
func TestCorruptedExpectedFileFails(t *testing.T) {
	const name = "errorbounds/lorenz-short"
	o, err := runPipeline(named(name), mpfrPlain, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := loadExpected("expected", name)
	if err != nil {
		t.Fatal(err)
	}
	if err := compareOutput(o.output, want); err != nil {
		t.Fatalf("clean expected file: %v", err)
	}

	dir := t.TempDir()
	b := []byte(want)
	i := strings.IndexByte(want, '.') + 3 // a mantissa digit of the first value
	b[i] ^= 1
	if err := os.WriteFile(expectedPath(dir, name), b, 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt, err := loadExpected(dir, name)
	if err != nil {
		t.Fatal(err)
	}
	if err := compareOutput(o.output, corrupt); err == nil {
		t.Fatal("run matched a corrupted expected file")
	}
}

// Every expected file must exist and belong to a program the benchmark runs.
func TestExpectedFilesComplete(t *testing.T) {
	want := map[string]bool{}
	for _, name := range recordNames() {
		p := expectedPath("expected", name)
		want[filepath.Base(p)] = true
		if _, err := os.Stat(p); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	entries, err := os.ReadDir("expected")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !want[e.Name()] {
			t.Errorf("stray expected file %s", e.Name())
		}
	}
}

// A served response counts as failed unless it is a complete 200 whose
// output equals the reference.
func TestResponseCheck(t *testing.T) {
	p := &program{name: "asm#0", want: "1\n2\n"}
	ok := runResponse{Output: "1\n2\n"}
	cases := []struct {
		name   string
		status int
		resp   runResponse
		fails  bool
	}{
		{"match", http.StatusOK, ok, false},
		{"mismatch", http.StatusOK, runResponse{Output: "1\n3\n"}, true},
		{"truncated output", http.StatusOK, runResponse{Output: "1\n"}, true},
		{"status 429", http.StatusTooManyRequests, ok, true},
		{"budget", http.StatusOK, runResponse{Output: ok.Output, BudgetExhausted: true}, true},
		{"deadline", http.StatusOK, runResponse{Output: ok.Output, DeadlineExceeded: true}, true},
		{"fault", http.StatusOK, runResponse{Output: ok.Output, Fault: "contained panic"}, true},
	}
	for _, c := range cases {
		r := &request{prog: p, status: c.status, resp: c.resp}
		if err := r.check(); (err != nil) != c.fails {
			t.Errorf("%s: check() = %v, want failure %v", c.name, err, c.fails)
		}
	}
}

// The Vanilla reference is a native run in this process: a served Vanilla
// output of a pool program must equal it, and a different program's output
// must not.
func TestVanillaReferenceBites(t *testing.T) {
	progs, err := servePrograms("expected")
	if err != nil {
		t.Fatal(err)
	}
	var asmProgs []*program
	for _, p := range progs {
		if p.kind == kindAsmVanilla {
			asmProgs = append(asmProgs, p)
		}
	}
	if len(asmProgs) != asmPoolSize {
		t.Fatalf("pool has %d programs, want %d", len(asmProgs), asmPoolSize)
	}
	a, b := asmProgs[0], asmProgs[1]
	o, err := runPipeline(a.build, kindConfig[kindAsmVanilla], nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := (&request{prog: a, status: http.StatusOK, resp: runResponse{Output: o.output}}).check(); err != nil {
		t.Fatalf("Vanilla output differs from native: %v", err)
	}
	if err := (&request{prog: b, status: http.StatusOK, resp: runResponse{Output: o.output}}).check(); err == nil {
		t.Fatal("another program's output matched the reference")
	}
}
