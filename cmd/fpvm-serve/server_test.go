package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"fpvm/internal/progen"
	"fpvm/internal/session"
)

// testServer returns an httptest server over a service with a small memory
// geometry so the suite stays fast under -race.
func testServer(t *testing.T, cfg serverConfig) (*server, *httptest.Server) {
	t.Helper()
	if cfg.MemSize == 0 {
		cfg.MemSize = 256 << 10
	}
	s := newServer(cfg)
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postRun(t *testing.T, ts *httptest.Server, body string, hdr map[string]string) (int, runResponse, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/run", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var rr runResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &rr); err != nil {
			t.Fatalf("bad 200 body %q: %v", raw, err)
		}
	}
	return resp.StatusCode, rr, string(raw)
}

func TestServeRunAndSessionReuse(t *testing.T) {
	_, ts := testServer(t, serverConfig{Workers: 2})
	code, rr, raw := postRun(t, ts, `{"workload":"FBench"}`, nil)
	if code != http.StatusOK {
		t.Fatalf("first run: %d %s", code, raw)
	}
	if rr.Output == "" || rr.Cycles == 0 || rr.Instructions == 0 {
		t.Fatalf("empty harvest: %+v", rr)
	}
	if rr.FPTraps == 0 {
		t.Errorf("FBench under virtualization should trap: %+v", rr)
	}
	if rr.Tenant != "anonymous" {
		t.Errorf("default tenant = %q, want anonymous", rr.Tenant)
	}

	// A later request for the same workload must hit the program cache and
	// land on a pooled session whose run counter has advanced. sync.Pool may
	// legitimately serve a fresh session on any single checkout (per-P caches,
	// GC reclamation), so retry a few times — reuse must show up quickly, not
	// on one exact request.
	var rr2 runResponse
	var code2 int
	for i := 0; i < 5; i++ {
		code2, rr2, raw = postRun(t, ts, `{"workload":"FBench"}`, nil)
		if code2 != http.StatusOK {
			t.Fatalf("repeat run: %d %s", code2, raw)
		}
		if rr2.SessionRuns >= 2 {
			break
		}
	}
	if rr2.SessionRuns < 2 {
		t.Errorf("no request landed on a reused session (runs=%d); pool not reusing", rr2.SessionRuns)
	}
	if rr2.Output != rr.Output || rr2.Cycles != rr.Cycles || rr2.FPTraps != rr.FPTraps {
		t.Errorf("reused session diverged: %+v vs %+v", rr2, rr)
	}
}

func TestServeInlineAsm(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	body := `{"asm":"movsd f0, =1.5\naddsd f0, =2.25\noutf f0\nhalt\n"}`
	code, rr, raw := postRun(t, ts, body, nil)
	if code != http.StatusOK {
		t.Fatalf("asm run: %d %s", code, raw)
	}
	if !strings.Contains(rr.Output, "3.75") {
		t.Errorf("asm output = %q, want 3.75", rr.Output)
	}
}

func TestServeQuotaDegradesNeverKills(t *testing.T) {
	s, ts := testServer(t, serverConfig{TenantQuota: 1000})
	// Ask for far more than the tenant quota: the grant is clamped, the run
	// truncates, and the response is still a 200 with a full harvest.
	code, rr, raw := postRun(t, ts, `{"workload":"FBench","max_inst":999999999}`, map[string]string{"X-FPVM-Tenant": "greedy"})
	if code != http.StatusOK {
		t.Fatalf("over-quota ask must degrade, not fail: %d %s", code, raw)
	}
	if rr.BudgetGranted != 1000 {
		t.Errorf("granted %d, want clamp to 1000", rr.BudgetGranted)
	}
	if !rr.BudgetExhausted || rr.Fault != "" {
		t.Errorf("truncation not reported as degradation: %+v", rr)
	}
	if rr.Instructions != 1000 {
		t.Errorf("retired %d instructions, want exactly the granted 1000", rr.Instructions)
	}
	if rr.Tenant != "greedy" {
		t.Errorf("header tenant lost: %+v", rr)
	}
	if got := s.degraded.Load(); got != 1 {
		t.Errorf("degraded counter = %d, want 1", got)
	}

	// A request under quota is granted its ask verbatim.
	code, rr, raw = postRun(t, ts, `{"workload":"FBench","max_inst":500}`, nil)
	if code != http.StatusOK {
		t.Fatalf("under-quota run: %d %s", code, raw)
	}
	if rr.BudgetGranted != 500 || !rr.BudgetExhausted {
		t.Errorf("under-quota ask mishandled: %+v", rr)
	}
}

func TestServeBadRequests(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	cases := []struct {
		name, body string
	}{
		{"no program", `{}`},
		{"both workload and asm", `{"workload":"FBench","asm":"halt"}`},
		{"unknown workload", `{"workload":"NoSuchThing"}`},
		{"unknown arith", `{"workload":"FBench","arith":"octuple"}`},
		{"bad asm", `{"asm":"frobnicate f0"}`},
		{"bad json", `{"workload":`},
	}
	for _, tc := range cases {
		code, _, raw := postRun(t, ts, tc.body, nil)
		if code != http.StatusBadRequest {
			t.Errorf("%s: got %d %s, want 400", tc.name, code, raw)
		}
		if !strings.Contains(raw, "error") {
			t.Errorf("%s: error body %q missing error field", tc.name, raw)
		}
	}

	resp, err := ts.Client().Get(ts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /run = %d, want 405", resp.StatusCode)
	}
}

func TestServeHealthzAndStats(t *testing.T) {
	_, ts := testServer(t, serverConfig{Workers: 3})
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["ok"] != true || health["status"] != "ok" {
		t.Fatalf("healthz = %v", health)
	}

	postRun(t, ts, `{"workload":"FBench"}`, map[string]string{"X-FPVM-Tenant": "alice"})
	postRun(t, ts, `{"workload":"FBench"}`, map[string]string{"X-FPVM-Tenant": "alice"})
	postRun(t, ts, `{"workload":"FBench","max_inst":100}`, map[string]string{"X-FPVM-Tenant": "bob"})

	resp, err = ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Requests != 3 || stats.Errors != 0 || stats.Workers != 3 {
		t.Errorf("service counters wrong: %+v", stats)
	}
	if stats.InFlight != 0 {
		t.Errorf("in_flight = %d after all runs drained", stats.InFlight)
	}
	alice, bob := stats.Tenants["alice"], stats.Tenants["bob"]
	if alice.Requests != 2 || alice.Instructions == 0 || alice.BudgetHits != 0 {
		t.Errorf("alice accounting wrong: %+v", alice)
	}
	if bob.Requests != 1 || bob.Instructions != 100 || bob.BudgetHits != 1 {
		t.Errorf("bob accounting wrong: %+v", bob)
	}
	if stats.Pool.Gets != 3 || stats.Pool.Puts != 3 {
		t.Errorf("pool traffic wrong: %+v", stats.Pool)
	}
}

func TestServeTraceAndTopSites(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	code, rr, raw := postRun(t, ts, `{"workload":"FBench","trace":true,"topsites":3}`, nil)
	if code != http.StatusOK {
		t.Fatalf("traced run: %d %s", code, raw)
	}
	if len(rr.TopSites) == 0 {
		t.Error("topsites requested but absent")
	}
	if rr.TraceJSONL == "" || !json.Valid([]byte(strings.SplitN(rr.TraceJSONL, "\n", 2)[0])) {
		t.Errorf("trace_jsonl not valid JSONL: %.80q", rr.TraceJSONL)
	}
}

// TestServeConcurrentTenants hammers the handler from many goroutines — under
// -race this is the service-level isolation proof: shared program cache,
// shared pool, per-tenant accounting, all racing.
func TestServeConcurrentTenants(t *testing.T) {
	s, ts := testServer(t, serverConfig{Workers: 4})
	const clients, perClient = 8, 4
	var wg sync.WaitGroup
	errs := make(chan string, clients*perClient)
	var want runResponse
	{
		code, rr, raw := postRun(t, ts, `{"workload":"FBench"}`, nil)
		if code != http.StatusOK {
			t.Fatalf("warmup: %d %s", code, raw)
		}
		want = rr
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", c)
			for i := 0; i < perClient; i++ {
				req, _ := http.NewRequest(http.MethodPost, ts.URL+"/run",
					bytes.NewReader([]byte(`{"workload":"FBench"}`)))
				req.Header.Set("X-FPVM-Tenant", tenant)
				resp, err := ts.Client().Do(req)
				if err != nil {
					errs <- err.Error()
					continue
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("%d %s", resp.StatusCode, raw)
					continue
				}
				var rr runResponse
				if err := json.Unmarshal(raw, &rr); err != nil {
					errs <- err.Error()
					continue
				}
				if rr.Output != want.Output || rr.Cycles != want.Cycles || rr.FPTraps != want.FPTraps {
					errs <- fmt.Sprintf("tenant %s saw divergent result: %+v vs %+v", tenant, rr, want)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if got := s.requests.Load(); got != clients*perClient+1 {
		t.Errorf("request counter = %d, want %d", got, clients*perClient+1)
	}
}

func TestServeSmokeExitClean(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := Run([]string{"-smoke", "-sessions", "10", "-j", "4", "-mem-kib", "256"}, &out, &errOut); code != 0 {
		t.Fatalf("-smoke exit %d: %s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "10/10 requests returned 200, clean shutdown") {
		t.Errorf("smoke summary wrong: %q", out.String())
	}
}

// TestServeRunBodyLimit pins the /run body bound: a body one byte over
// maxRunBody is refused with 413 and a typed message before it is decoded,
// while a normal request, and one padded to exactly the limit, still run.
func TestServeRunBodyLimit(t *testing.T) {
	_, ts := testServer(t, serverConfig{Workers: 1})
	body := `{"workload":"FBench"}`

	code, _, raw := postRun(t, ts, body, nil)
	if code != http.StatusOK {
		t.Fatalf("normal request: %d %s", code, raw)
	}
	code, _, raw = postRun(t, ts, strings.Repeat(" ", maxRunBody-len(body))+body, nil)
	if code != http.StatusOK {
		t.Fatalf("request of exactly %d bytes: %d %s", maxRunBody, code, raw)
	}
	code, _, raw = postRun(t, ts, strings.Repeat(" ", maxRunBody+1-len(body))+body, nil)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized request: %d %s, want 413", code, raw)
	}
	var e struct{ Error string }
	if err := json.Unmarshal([]byte(raw), &e); err != nil || !strings.Contains(e.Error, "exceeds") {
		t.Fatalf("413 body %q is not the typed size error", raw)
	}
}

func TestServeBadFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := Run([]string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("bad flag exit %d, want 2", code)
	}
	if code := Run([]string{"-smoke", "-workload", "NoSuchTarget"}, &out, &errOut); code != 1 {
		t.Fatalf("bad smoke target exit %d, want 1", code)
	}
}

// TestServeSharedWarmCache pins the serve-layer warm-cache contract: the
// first JIT-armed request for a workload compiles and publishes; later
// requests — other tenants included — adopt the shared traces (zero
// sb_compiled), outputs stay identical, and GET /stats exposes both the
// aggregate superblock counters and the shared-cache hit rate.
func TestServeSharedWarmCache(t *testing.T) {
	_, ts := testServer(t, serverConfig{Workers: 2})
	body := `{"workload":"FBench","jitthreshold":2}`

	code, cold, raw := postRun(t, ts, body, map[string]string{"X-FPVM-Tenant": "alice"})
	if code != http.StatusOK {
		t.Fatalf("cold run: %d %s", code, raw)
	}
	if cold.SBCompiled == 0 || cold.SBHits == 0 {
		t.Fatalf("cold run never engaged the jit tier: %+v", cold)
	}

	code, warm, raw := postRun(t, ts, body, map[string]string{"X-FPVM-Tenant": "bob"})
	if code != http.StatusOK {
		t.Fatalf("warm run: %d %s", code, raw)
	}
	if warm.SBCompiled != 0 {
		t.Fatalf("warm run compiled %d superblocks, want 0 (adopted)", warm.SBCompiled)
	}
	if warm.Output != cold.Output {
		t.Fatalf("warm output diverged from cold run")
	}
	// Hit counts are not comparable to the cold run: adoption publishes the
	// first-compiled (longest) traces, which cross sibling entries, so a warm
	// run serves fewer but larger superblock hits. The contract is zero
	// compiles, nonzero service, identical output.
	if warm.SBHits == 0 {
		t.Fatal("warm run served no superblock entries")
	}

	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.SBCompiled != cold.SBCompiled || stats.SBHits == 0 {
		t.Errorf("service superblock counters wrong: %+v", stats)
	}
	if stats.SharedSB == nil {
		t.Fatal("shared_sb missing from /stats")
	}
	if stats.SharedSB.Stores == 0 || stats.SharedSB.Adopted == 0 || stats.SharedSB.HitRate <= 0 {
		t.Errorf("shared cache stats wrong: %+v", *stats.SharedSB)
	}
	alice, bob := stats.Tenants["alice"], stats.Tenants["bob"]
	if alice.SBCompiled == 0 || alice.SBHits == 0 {
		t.Errorf("alice superblock accounting wrong: %+v", alice)
	}
	if bob.SBCompiled != 0 || bob.SBHits == 0 {
		t.Errorf("bob superblock accounting wrong: %+v", bob)
	}
}

// TestServeIgnoresStormField pins what an old client's "storm" field does:
// nothing. Request decoding is lenient, so the unknown field is ignored, and
// a run that asks for it prints exactly what the same run without it prints.
func TestServeIgnoresStormField(t *testing.T) {
	_, ts := testServer(t, serverConfig{Workers: 2})
	var outs [2]string
	for i, body := range []string{
		`{"workload":"FBench","arith":"mpfr","storm":64}`,
		`{"workload":"FBench","arith":"mpfr"}`,
	} {
		code, rr, raw := postRun(t, ts, body, nil)
		if code != http.StatusOK {
			t.Fatalf("%s: %d %s", body, code, raw)
		}
		outs[i] = rr.Output
	}
	if outs[0] != outs[1] {
		t.Fatalf("the storm field changed the output:\nwith:    %q\nwithout: %q", outs[0], outs[1])
	}
}

// getStats fetches and decodes GET /stats.
func getStats(t *testing.T, ts *httptest.Server) statsResponse {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestServeImageCache pins the image cache at the service edge: a bundled
// target and an inline asm body are each assembled and analyzed once, a
// repeated body reuses its image — warm superblocks included — and /stats
// reports the traffic in its images block.
func TestServeImageCache(t *testing.T) {
	_, ts := testServer(t, serverConfig{Workers: 2})
	src := progen.FPLoopSource(rand.New(rand.NewSource(1)), 24, 50)
	asmBody := string(mustMarshal(t, map[string]any{"asm": src, "jitthreshold": 2}))
	var outs [2]runResponse
	for i := range outs {
		code, rr, raw := postRun(t, ts, asmBody, nil)
		if code != http.StatusOK {
			t.Fatalf("asm run %d: %d %s", i, code, raw)
		}
		outs[i] = rr
		if code, _, raw := postRun(t, ts, `{"workload":"FBench"}`, nil); code != http.StatusOK {
			t.Fatalf("workload run %d: %d %s", i, code, raw)
		}
	}
	if outs[0].SBCompiled == 0 || outs[1].SBCompiled != 0 || outs[1].SBHits == 0 {
		t.Errorf("repeated asm body did not adopt the first run's traces: cold %+v, warm %+v", outs[0], outs[1])
	}
	if outs[1].Output != outs[0].Output {
		t.Error("repeated asm body printed different output")
	}
	st := getStats(t, ts)
	if st.Images != (session.ImageStats{Builds: 2, Hits: 2, Entries: 2}) {
		t.Errorf("images block = %+v, want 2 builds, 2 hits, 2 entries", st.Images)
	}
	if st.SharedSB == nil || st.SharedSB.Programs != 1 || st.SharedSB.Entries == 0 {
		t.Errorf("shared_sb does not count the asm image's traces: %+v", st.SharedSB)
	}
}

// TestServeRejectsOversizedData pins the data bounds: a .zero past the
// guest-memory ceiling is refused by the assembler before it allocates, and
// a data segment that cannot fit the session memory is refused before it is
// analyzed; both are client errors (400) and neither is cached.
func TestServeRejectsOversizedData(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	for _, n := range []int{1 << 40, 300 << 10} {
		body := string(mustMarshal(t, map[string]any{"asm": fmt.Sprintf(".data\nb: .zero %d\n.text\nhalt\n", n)}))
		code, _, raw := postRun(t, ts, body, nil)
		if code != http.StatusBadRequest || !strings.Contains(raw, "data segment") {
			t.Errorf(".zero %d: %d %s, want 400 naming the data segment", n, code, raw)
		}
	}
	if st := getStats(t, ts); st.Images.Entries != 0 {
		t.Errorf("refused programs were cached: %+v", st.Images)
	}
	var out, errOut bytes.Buffer
	if code := Run([]string{"-mem-kib", "1048576"}, &out, &errOut); code != 2 {
		t.Errorf("-mem-kib over the ceiling: exit %d, want 2 (%s)", code, errOut.String())
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
