package loadgen

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"fpvm/internal/arith"
	"fpvm/internal/asm"
	"fpvm/internal/patch"
	"fpvm/internal/session"
)

const loadSrc = `
	movsd f0, =1.5
	addsd f0, =2.25
	outf f0
	halt
`

func TestRunThroughPool(t *testing.T) {
	prog, err := asm.Assemble(loadSrc)
	if err != nil {
		t.Fatal(err)
	}
	img, err := patch.NewImage(prog)
	if err != nil {
		t.Fatal(err)
	}
	var pool session.Pool
	cfg := session.Config{System: arith.Vanilla{}, MemSize: 64 << 10}
	rep := Run(&pool, img, cfg, Options{Sessions: 40, Workers: 4})
	if rep.Sessions != 40 || rep.Workers != 4 {
		t.Fatalf("report shape wrong: %+v", rep)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d of %d sessions failed", rep.Errors, rep.Sessions)
	}
	if rep.PerSec <= 0 || rep.Elapsed <= 0 {
		t.Fatalf("throughput not measured: %+v", rep)
	}
	if rep.P50 <= 0 || rep.P99 < rep.P50 {
		t.Fatalf("latency percentiles inconsistent: p50 %s, p99 %s", rep.P50, rep.P99)
	}
	if rep.Pool.Gets != 40 || rep.Pool.Puts != 40 {
		t.Fatalf("pool traffic wrong: %+v", rep.Pool)
	}
	// sync.Pool injects artificial misses under the race detector, so the
	// strict News <= Workers bound only holds in normal builds; here we only
	// pin that construction is bounded by traffic. TestPoolReuse in the
	// session package covers the reuse guarantee deterministically.
	if rep.Pool.News == 0 || rep.Pool.News > rep.Pool.Gets {
		t.Fatalf("pool construction count out of range: %+v", rep.Pool)
	}

	var sb strings.Builder
	rep.Write(&sb)
	line := sb.String()
	if !strings.Contains(line, "40 sessions") || !strings.Contains(line, "0 errors") {
		t.Fatalf("summary line malformed: %q", line)
	}
}

func TestRunCountsErrors(t *testing.T) {
	prog, err := asm.Assemble(loadSrc)
	if err != nil {
		t.Fatal(err)
	}
	img, err := patch.NewImage(prog)
	if err != nil {
		t.Fatal(err)
	}
	var pool session.Pool
	// Missing System makes every run fail at validation.
	rep := Run(&pool, img, session.Config{}, Options{Sessions: 10, Workers: 2})
	if rep.Errors != 10 {
		t.Fatalf("want 10 errors, got %d", rep.Errors)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Sessions != 100 || o.Workers != 8 {
		t.Fatalf("defaults wrong: %+v", o)
	}
	o = Options{Sessions: 3, Workers: 16}.withDefaults()
	if o.Workers != 3 {
		t.Fatalf("workers not clamped to sessions: %+v", o)
	}
}

func TestRunHTTP(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1)%5 == 0 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()

	rep := RunHTTP(srv.Client(), srv.URL, []byte(`{"workload":"FBench"}`), Options{Sessions: 20, Workers: 4})
	if int(hits.Load()) != 20 {
		t.Fatalf("server saw %d requests, want 20", hits.Load())
	}
	if rep.Errors != 4 {
		t.Fatalf("want 4 non-200 errors, got %d", rep.Errors)
	}

	srv.Close()
	rep = RunHTTP(srv.Client(), srv.URL, nil, Options{Sessions: 5, Workers: 2})
	if rep.Errors != 5 {
		t.Fatalf("transport failures must count as errors: %+v", rep)
	}
}
