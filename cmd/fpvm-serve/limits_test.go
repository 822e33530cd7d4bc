package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestServeRejectsHugePrecision pins the precision cap: a prec over maxPrec
// (here MPFR's own 2^30 ceiling, whose first cell chunk would be 128 GiB) is
// refused with the typed 400 before any session is checked out, under mpfr
// and adaptive alike, while a prec at the cap still runs.
func TestServeRejectsHugePrecision(t *testing.T) {
	_, ts := testServer(t, serverConfig{Workers: 1})
	for _, body := range []string{
		`{"workload":"FBench","arith":"mpfr","prec":1073741824}`,
		fmt.Sprintf(`{"workload":"FBench","arith":"adaptive","prec":%d}`, maxPrec+1),
	} {
		code, _, raw := postRun(t, ts, body, nil)
		if code != http.StatusBadRequest || !strings.Contains(raw, "prec") || !strings.Contains(raw, "exceeds the limit") {
			t.Errorf("%s: got %d %s, want the typed 400", body, code, raw)
		}
	}
	if st := getStats(t, ts); st.Pool.Gets != 0 || st.Requests != 0 {
		t.Fatalf("a refused precision checked out a session: pool %+v, requests %d", st.Pool, st.Requests)
	}
	code, _, raw := postRun(t, ts, fmt.Sprintf(`{"asm":"halt","arith":"mpfr","prec":%d}`, maxPrec), nil)
	if code != http.StatusOK {
		t.Fatalf("prec at the cap: %d %s", code, raw)
	}
}

// TestServeRejectsLongTenantName: a tenant name over maxTenantName bytes,
// from the header or the body, is refused with 400; one at the limit runs.
func TestServeRejectsLongTenantName(t *testing.T) {
	_, ts := testServer(t, serverConfig{Workers: 1})
	long := strings.Repeat("t", maxTenantName+1)
	code, _, raw := postRun(t, ts, `{"asm":"halt"}`, map[string]string{"X-FPVM-Tenant": long})
	if code != http.StatusBadRequest || !strings.Contains(raw, "tenant name") {
		t.Errorf("long header tenant: got %d %s, want 400", code, raw)
	}
	code, _, raw = postRun(t, ts, `{"asm":"halt","tenant":"`+long+`"}`, nil)
	if code != http.StatusBadRequest || !strings.Contains(raw, "tenant name") {
		t.Errorf("long body tenant: got %d %s, want 400", code, raw)
	}
	code, rr, raw := postRun(t, ts, `{"asm":"halt"}`, map[string]string{"X-FPVM-Tenant": long[:maxTenantName]})
	if code != http.StatusOK || rr.Tenant != long[:maxTenantName] {
		t.Fatalf("tenant at the limit: %d %s", code, raw)
	}
	if st := getStats(t, ts); len(st.Tenants) != 1 {
		t.Fatalf("tenant table %v, want only the accepted name", st.Tenants)
	}
}

// TestServeTenantTableOverflow: once maxTenants names are in the table, a
// new name is still served, charged to the one shared overflow row, and the
// table and /stats stop growing.
func TestServeTenantTableOverflow(t *testing.T) {
	s, ts := testServer(t, serverConfig{Workers: 1})
	for i := 0; i < maxTenants; i++ {
		s.tenant(fmt.Sprintf("tenant-%d", i))
	}
	if s.tenant("late-1") != s.tenant("late-2") || s.tenant("late-1") != &s.overflow {
		t.Fatal("names past the table's capacity do not share the overflow row")
	}
	if s.tenant("tenant-7") == &s.overflow {
		t.Fatal("a name already in the table was charged to the overflow row")
	}
	for _, name := range []string{"late-1", "late-2"} {
		code, rr, raw := postRun(t, ts, `{"asm":"halt"}`, map[string]string{"X-FPVM-Tenant": name})
		if code != http.StatusOK || rr.Tenant != name {
			t.Fatalf("overflowed tenant %s: %d %s", name, code, raw)
		}
	}
	st := getStats(t, ts)
	if len(st.Tenants) != maxTenants {
		t.Errorf("/stats lists %d tenants, want %d", len(st.Tenants), maxTenants)
	}
	if _, ok := st.Tenants["late-1"]; ok {
		t.Error("an overflowed name got a row of its own")
	}
	if st.TenantOverflow == nil || st.TenantOverflow.Requests != 2 {
		t.Fatalf("overflow row %+v, want both late requests", st.TenantOverflow)
	}
}

// FuzzServeRun drives the /run handler with arbitrary bodies: every body,
// however malformed or hostile, ends in one of the statuses the service
// answers clients with, and nothing panics. The server is small (256 KiB
// guests, a short instruction quota and run time) and refuses fault specs.
func FuzzServeRun(f *testing.F) {
	for _, seed := range []string{
		`{"workload":"FBench","arith":"mpfr","seqlen":16,"jitthreshold":8}`,
		`{"asm":"halt"}`,
		`{"workload":"FBench","arith":"mpfr","prec":1073741824}`,
		`{"asm":"halt","tenant":"` + strings.Repeat("t", maxTenantName+1) + `"}`,
		``,
		strings.Repeat(" ", maxRunBody) + `{"asm":"halt"}`,
		`{"asm":"halt","faults":"seed=1,rate=1"}`,
	} {
		f.Add(seed)
	}
	s := newServer(serverConfig{
		Workers:      2,
		MaxInst:      2_000,
		MemSize:      256 << 10,
		MaxRunTime:   200 * time.Millisecond,
		QueueTimeout: 100 * time.Millisecond,
	})
	h := s.handler()
	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", strings.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusForbidden,
			http.StatusRequestEntityTooLarge, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("body %.200q: status %d %s", body, rec.Code, rec.Body.String())
		}
	})
}
