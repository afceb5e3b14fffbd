package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mat"
)

// newTestServer spins up a small resident engine behind the real mux.
func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	eng, err := engine.New(engine.Options{Workers: 2, MaxInflight: 8})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Keep == 0 {
		opt.Keep = 8
	}
	s := New(eng, opt)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding reply: %v", err)
	}
	return resp, out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestServeFactorSolveRoundTrip drives factor then single- and
// multi-RHS solves through the HTTP surface and checks the arithmetic.
func TestServeFactorSolveRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, out := postJSON(t, ts.URL+"/v1/factor",
		`{"rows":2,"cols":2,"data":[4,3,6,3],"residual":true,"workers":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("factor: %d %v", resp.StatusCode, out)
	}
	id := out["id"].(string)
	if r := out["residual"].(float64); r > 1e-12 {
		t.Fatalf("factor residual %g", r)
	}

	resp, out = postJSON(t, ts.URL+"/v1/solve", fmt.Sprintf(`{"id":%q,"b":[10,12]}`, id))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %v", resp.StatusCode, out)
	}
	x := out["x"].([]any)
	// 4x+3y=10, 6x+3y=12 -> x=1, y=2.
	if len(x) != 2 || abs(x[0].(float64)-1) > 1e-12 || abs(x[1].(float64)-2) > 1e-12 {
		t.Fatalf("solve got %v, want [1 2]", x)
	}

	// Two right-hand sides at once, column-major.
	resp, out = postJSON(t, ts.URL+"/v1/solve",
		fmt.Sprintf(`{"id":%q,"b":[10,12,7,9],"nrhs":2}`, id))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve nrhs=2: %d %v", resp.StatusCode, out)
	}
	if got := out["x"].([]any); len(got) != 4 {
		t.Fatalf("multi-RHS solution length %d, want 4", len(got))
	}
	if out["nrhs"].(float64) != 2 {
		t.Fatalf("nrhs echoed %v", out["nrhs"])
	}
}

// TestServeCholeskyEndpoints round-trips /v1/cholesky and a /v1/solve
// of the stored Cholesky factor.
func TestServeCholeskyEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, out := postJSON(t, ts.URL+"/v1/cholesky", `{"n":48,"seed":3,"workers":1,"residual":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cholesky factor: %d %v", resp.StatusCode, out)
	}
	id := out["id"].(string)
	if !strings.HasPrefix(id, "c-") {
		t.Fatalf("cholesky id %q", id)
	}
	if r := out["residual"].(float64); r > 1e-10 {
		t.Fatalf("cholesky residual %g", r)
	}
	b := make([]string, 48)
	for i := range b {
		b[i] = "1"
	}
	resp, out = postJSON(t, ts.URL+"/v1/solve",
		fmt.Sprintf(`{"id":%q,"b":[%s]}`, id, strings.Join(b, ",")))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cholesky solve: %d %v", resp.StatusCode, out)
	}
	if len(out["x"].([]any)) != 48 {
		t.Fatalf("cholesky solution length %d", len(out["x"].([]any)))
	}
}

// TestServeMethodNotAllowed: every mutating endpoint rejects non-POST
// with 405 (and an Allow header); GET-only endpoints reject POST.
func TestServeMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, path := range []string{
		"/v1/factor", "/v1/solve", "/v1/cholesky",
		"/v1/admin/import", "/v1/admin/drain",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET %s: %d, want 405", path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
			t.Fatalf("GET %s: Allow %q, want POST", path, allow)
		}
	}
	for _, path := range []string{"/v1/stats", "/v1/admin/export", "/healthz", "/readyz"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST %s: %d, want 405", path, resp.StatusCode)
		}
	}
}

// TestServeTrailingGarbageRejected: a body with data after the first
// JSON value is a 400, on every mutating endpoint.
func TestServeTrailingGarbageRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	bodies := map[string]string{
		"/v1/factor":   `{"n":8,"seed":1} {"n":9}`,
		"/v1/cholesky": `{"n":8,"seed":1} garbage`,
		"/v1/solve":    `{"id":"f-1","b":[1]} []`,
	}
	for path, body := range bodies {
		resp, out := postJSON(t, ts.URL+path, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s with trailing data: %d (%v), want 400", path, resp.StatusCode, out)
		}
	}
	// Stray closing brackets after the value are trailing data too.
	for _, body := range []string{`{"n":8,"seed":1} }`, `{"n":8,"seed":1} ]`} {
		resp, out := postJSON(t, ts.URL+"/v1/factor", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("trailing bracket %q: %d (%v), want 400", body, resp.StatusCode, out)
		}
	}
	// A clean body still works after the rejections.
	resp, out := postJSON(t, ts.URL+"/v1/factor", `{"n":8,"seed":1,"workers":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean factor after rejects: %d %v", resp.StatusCode, out)
	}
}

// TestServeFactorBodyParsedInOnePass pins the one-pass parse of a
// factor request's matrix and the guard's reused body buffer: the
// n = 512 body, posted through the guard the factor route uses, decodes
// to json.Unmarshal's values, bit for bit, and once a first call has
// parked a buffer for it, each call allocates at most 1.25x its 2 MiB
// of numbers: no body buffer. A silent fallback to encoding/json keeps
// every value right and allocates ~11 MB; a body buffer that is not
// reused (or a sync.Pool under -race, which drops a share of its Puts)
// adds 5-8 MB.
func TestServeFactorBodyParsedInOnePass(t *testing.T) {
	const n, calls = 512, 3
	a := mat.Random(n, n, rand.New(rand.NewSource(1)))
	js, err := json.Marshal(a.Data)
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Appendf(nil, `{"rows":%d,"cols":%d,"block":64,"data":%s}`, n, n, js)
	var want, got factorRequest
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}
	h := cluster.PostJSON(int64(len(body)), func(_ http.ResponseWriter, _ *http.Request, v *factorRequest) { got = *v })
	call := func() {
		got = factorRequest{}
		w := httptest.NewRecorder()
		if h(w, httptest.NewRequest(http.MethodPost, "/v1/factor", bytes.NewReader(body))); w.Code != http.StatusOK {
			t.Fatalf("guard answered %d: %s", w.Code, w.Body)
		}
	}
	call() // parks the body's buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	if per, limit := (after.TotalAlloc-before.TotalAlloc)/calls, uint64(n*n*8*5/4); per > limit {
		t.Errorf("decoding the %d-byte body allocates %d bytes, over %d: the one-pass parse did not run or the body buffer was not reused", len(body), per, limit)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("data[%d] = %v, json.Unmarshal gives %v", i, got.Data[i], want.Data[i])
		}
	}
	got.Data, want.Data = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, json.Unmarshal gives %+v", got, want)
	}
}

// TestServeDegradedSolveReportsPrefix: solving against a degraded
// factorization returns 422 with the solvable prefix, not an opaque
// error string.
func TestServeDegradedSolveReportsPrefix(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	resp, out := postJSON(t, ts.URL+"/v1/factor", `{"n":32,"seed":5,"workers":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("factor: %d %v", resp.StatusCode, out)
	}
	id := out["id"].(string)
	// Degrade the stored factorization the way a prefix-padded singular
	// fallback would: zero the factored tail of U.
	f, ok := s.Store().Get(id)
	if !ok {
		t.Fatalf("stored factorization %q missing", id)
	}
	for j := 20; j < 32; j++ {
		f.(*core.Factorization).U.Set(j, j, 0)
	}
	b := strings.Repeat("1,", 31) + "1"
	resp, out = postJSON(t, ts.URL+"/v1/solve", fmt.Sprintf(`{"id":%q,"b":[%s]}`, id, b))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("degraded solve: %d %v, want 422", resp.StatusCode, out)
	}
	if p := out["solvablePrefix"].(float64); p != 20 {
		t.Fatalf("solvablePrefix %v, want 20", p)
	}
	if n := out["n"].(float64); n != 32 {
		t.Fatalf("n %v, want 32", n)
	}
}

// TestServeNonFiniteSolve422: a solve whose solution JSON cannot carry
// is a 422 naming it, at the shard and through the router, which relays
// it without asking the other replica: 422 is not a status to fail over
// on. Entries near the float64 limit overflow the factors, which a
// factor without a residual check stores, so a solve against them is
// not finite.
func TestServeNonFiniteSolve422(t *testing.T) {
	var infos []cluster.ShardInfo
	for _, name := range []string{"a", "b"} {
		_, ts := newTestServer(t, Options{})
		infos = append(infos, cluster.ShardInfo{Name: name, URL: ts.URL})
	}
	rt, err := cluster.NewRouter(cluster.RouterOptions{Shards: infos, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer rt.Close()
	defer front.Close()

	rng := rand.New(rand.NewSource(1))
	data := make([]string, 64*64)
	for i := range data {
		data[i] = strconv.FormatFloat((2*rng.Float64()-1)*1e308, 'g', -1, 64)
	}
	body := fmt.Sprintf(`{"rows":64,"cols":64,"data":[%s]}`, strings.Join(data, ","))
	resp, out := postJSON(t, front.URL+"/v1/factor", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("factor: %d %v", resp.StatusCode, out)
	}
	id := out["id"].(string)
	b := strings.Repeat("1,", 63) + "1"
	for _, base := range []string{infos[0].URL, infos[1].URL, front.URL} {
		resp, out = postJSON(t, base+"/v1/solve", fmt.Sprintf(`{"id":%q,"b":[%s]}`, id, b))
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("solve at %s with a non-finite solution: %d %v, want 422", base, resp.StatusCode, out)
		}
		if msg, _ := out["error"].(string); !strings.HasPrefix(msg, fmt.Sprintf("solve of %q is not finite", id)) {
			t.Fatalf("error %q, want it to name the non-finite solution", msg)
		}
	}
	if st := rt.Stats(); st.Failovers != 0 || st.Replications != 1 || st.ReplicationFailures != 0 {
		t.Fatalf("router failovers %d, replications %d (%d failed); want 0 and 1 (0)", st.Failovers, st.Replications, st.ReplicationFailures)
	}
}

// TestServeNonFiniteResidualNotStored: a factor whose requested
// residual is not finite is a 422 naming it, and the factorization is
// not stored — its id would never reach the client.
func TestServeNonFiniteResidualNotStored(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	before := s.Store().Len()
	resp, out := postJSON(t, ts.URL+"/v1/factor", `{"rows":2,"cols":2,"data":[1e308,1e308,1e308,-1e308],"residual":true}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("factor with a non-finite residual: %d %v, want 422", resp.StatusCode, out)
	}
	if msg, _ := out["error"].(string); !strings.HasPrefix(msg, "residual is ") {
		t.Fatalf("error %q, want it to name the residual", msg)
	}
	if got := s.Store().Len(); got != before {
		t.Fatalf("store holds %d factorizations after the 422, want %d", got, before)
	}
}

// TestServeSolveBadShapes covers rhs-shape validation and unknown ids.
func TestServeSolveBadShapes(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, _ := postJSON(t, ts.URL+"/v1/solve", `{"id":"f-404","b":[1,2]}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: %d, want 404", resp.StatusCode)
	}
	resp, out := postJSON(t, ts.URL+"/v1/factor", `{"n":8,"seed":2,"workers":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("factor: %d %v", resp.StatusCode, out)
	}
	id := out["id"].(string)
	resp, _ = postJSON(t, ts.URL+"/v1/solve", fmt.Sprintf(`{"id":%q,"b":[1,2,3]}`, id))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short rhs: %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/solve", fmt.Sprintf(`{"id":%q,"b":[1,2,3,4,5,6,7,8],"nrhs":3}`, id))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("rhs not n*nrhs: %d, want 400", resp.StatusCode)
	}
}

// TestServeRetiredFieldsRejected: scheduler, layout, dynamicRatio and
// class are not request fields. Naming one on any job route, even with
// the value every job runs, is a 400 that names it, before a job runs
// or the store changes. TestClusterBlockGridBounded sends one through
// the router.
func TestServeRetiredFieldsRejected(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	ids := map[string]string{}
	for _, path := range []string{"/v1/factor", "/v1/cholesky"} {
		resp, out := postJSON(t, ts.URL+path, `{"n":8,"seed":2,"workers":1}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %v", path, resp.StatusCode, out)
		}
		ids[path] = out["id"].(string)
	}
	jobs := func() int64 { st := s.eng.Stats(); return st.JobsDone + st.JobsFailed }
	jobsBefore, storeBefore, idsBefore := jobs(), s.Store().Stats(), s.Store().IDs()
	const b = `"b":[1,2,3,4,5,6,7,8]`
	for path, body := range map[string]string{
		"/v1/factor":   `{"n":8,"seed":2,%s}`,
		"/v1/cholesky": `{"n":8,"seed":2,%s}`,
		"/v1/solve":    `{"id":"` + ids["/v1/factor"] + `",` + b + `,%s}`,
	} {
		for field, value := range map[string]string{
			"scheduler": `"hybrid"`, "layout": `"bcl"`, "dynamicRatio": `0.1`, "class": `"auto"`,
		} {
			resp, out := postJSON(t, ts.URL+path, fmt.Sprintf(body, fmt.Sprintf("%q:%s", field, value)))
			if msg, _ := out["error"].(string); resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, field) {
				t.Errorf("%s naming %s: %d %v, want 400 naming it", path, field, resp.StatusCode, out)
			}
		}
	}
	if got := jobs(); got != jobsBefore {
		t.Errorf("engine ran jobs for rejected requests: JobsDone+JobsFailed %d -> %d", jobsBefore, got)
	}
	if st, ids := s.Store().Stats(), s.Store().IDs(); st != storeBefore || !reflect.DeepEqual(ids, idsBefore) {
		t.Errorf("store changed: %+v %v -> %+v %v", storeBefore, idsBefore, st, ids)
	}
}

// TestServeContentTypeRejected: a POST with a non-JSON Content-Type is
// 415; an absent Content-Type or application/json with parameters is
// accepted.
func TestServeContentTypeRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body := `{"n":8,"seed":1,"workers":1}`

	resp, err := http.Post(ts.URL+"/v1/factor", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("text/plain POST: %d, want 415", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/factor", strings.NewReader(body))
	resp, err = http.DefaultClient.Do(req) // no Content-Type at all
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("no-Content-Type POST: %d, want 200", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/v1/factor", "application/json; charset=utf-8", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("charset-parameterized JSON POST: %d, want 200", resp.StatusCode)
	}
}

// TestServeBodyTooLarge: a body past the cap is 413, and the server
// keeps working afterwards.
func TestServeBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxBody: 128})
	big := fmt.Sprintf(`{"n":8,"seed":1,"data":[%s1]}`, strings.Repeat("1,", 200))
	resp, out := postJSON(t, ts.URL+"/v1/factor", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d %v, want 413", resp.StatusCode, out)
	}
	// n=4 generates 4*4*8 = 128 bytes: exactly at the cap, still served.
	resp, out = postJSON(t, ts.URL+"/v1/factor", `{"n":4,"workers":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small body after 413: %d %v", resp.StatusCode, out)
	}
}

// TestServeStoreLRUEviction: the keep bound evicts the least recently
// USED factorization, not the oldest stored — a solve refreshes its
// factorization's position.
func TestServeStoreLRUEviction(t *testing.T) {
	_, ts := newTestServer(t, Options{Keep: 2})
	factor := func() string {
		resp, out := postJSON(t, ts.URL+"/v1/factor", `{"n":8,"seed":1,"workers":1}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("factor: %d %v", resp.StatusCode, out)
		}
		return out["id"].(string)
	}
	solve := func(id string) int {
		resp, _ := postJSON(t, ts.URL+"/v1/solve",
			fmt.Sprintf(`{"id":%q,"b":[1,1,1,1,1,1,1,1]}`, id))
		return resp.StatusCode
	}

	a, b := factor(), factor()
	if solve(a) != http.StatusOK { // refresh a: now b is least recently used
		t.Fatalf("solve %s before eviction failed", a)
	}
	factor() // third entry: evicts b, not a
	if code := solve(a); code != http.StatusOK {
		t.Fatalf("recently-used %s evicted (solve %d)", a, code)
	}
	if code := solve(b); code != http.StatusNotFound {
		t.Fatalf("least-recently-used %s still resident (solve %d, want 404)", b, code)
	}
}

// TestServeStoreMemBudget: the byte budget evicts old factorizations
// even below the keep count, but never the one just stored.
func TestServeStoreMemBudget(t *testing.T) {
	// A 16x16 LU costs 2*16*16*8 = 4096 bytes; budget one and a half.
	s, ts := newTestServer(t, Options{Keep: 64, MemBudget: 6000})
	factor := func() string {
		resp, out := postJSON(t, ts.URL+"/v1/factor", `{"n":16,"seed":1,"workers":1}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("factor: %d %v", resp.StatusCode, out)
		}
		return out["id"].(string)
	}
	a := factor()
	b := factor() // pushes bytes to 8192 > 6000: evicts a
	if st := s.Store().Stats(); st.Count != 1 || st.Bytes != 4096 {
		t.Fatalf("store after budget eviction: %d entries / %d bytes, want 1 / 4096", st.Count, st.Bytes)
	}
	if _, ok := s.Store().Get(a); ok {
		t.Fatalf("%s survived the byte budget", a)
	}
	if _, ok := s.Store().Get(b); !ok {
		t.Fatalf("just-stored %s was evicted", b)
	}
}

// TestServeDeadlineShed503: a deadline that has passed by the time the
// job would be submitted is refused with a cheap 503 + Retry-After, no
// worker consumed; a negative deadline is the caller's fault (400).
func TestServeDeadlineShed503(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	// Generating the 512x512 matrix alone takes milliseconds; a
	// 1-microsecond deadline has passed before the job is submitted on
	// any hardware.
	resp, out := postJSON(t, ts.URL+"/v1/factor",
		`{"n":512,"seed":1,"workers":1,"deadlineMs":0.001}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("infeasible deadline: %d %v, want 503", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed reply missing Retry-After")
	}
	resp, _ = postJSON(t, ts.URL+"/v1/factor", `{"n":8,"seed":1,"deadlineMs":-5}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative deadlineMs: %d, want 400", resp.StatusCode)
	}
	// The shed consumed nothing: a feasible job still runs.
	resp, out = postJSON(t, ts.URL+"/v1/factor", `{"n":8,"seed":1,"workers":1,"deadlineMs":60000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feasible deadline after shed: %d %v", resp.StatusCode, out)
	}
}

// TestServeDeadlineBeyondDurationRefused: a deadlineMs longer than the
// longest time.Duration would overflow to an already expired context
// and be shed as a 503 the caller can never get past by retrying. It is
// a 400 that names the bound, on a factor and a solve alike, before any
// job runs; a deadline of exactly the bound still runs.
func TestServeDeadlineBeyondDurationRefused(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	resp, out := postJSON(t, ts.URL+"/v1/factor", `{"n":8,"seed":1,"workers":1,"deadlineMs":9223372036854}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deadlineMs at the bound: %d %v, want 200", resp.StatusCode, out)
	}
	id := out["id"].(string)
	jobs := func() int64 { st := s.eng.Stats(); return st.JobsDone + st.JobsFailed }
	before := jobs()
	for _, c := range []struct{ path, body string }{
		{"/v1/factor", `{"n":8,"seed":1,"workers":1,"deadlineMs":1e13}`},
		{"/v1/solve", fmt.Sprintf(`{"id":%q,"b":[1,1,1,1,1,1,1,1],"deadlineMs":1e13}`, id)},
	} {
		resp, out := postJSON(t, ts.URL+c.path, c.body)
		if msg, _ := out["error"].(string); resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, "9223372036854") {
			t.Errorf("%s with deadlineMs 1e13: %d %v, want 400 naming the bound", c.path, resp.StatusCode, out)
		}
	}
	if got := jobs(); got != before {
		t.Errorf("engine ran jobs for refused deadlines: %d -> %d", before, got)
	}
	if st := s.eng.Stats(); st.Shed != 0 {
		t.Errorf("Shed %d, want 0: an overlong deadline is not load", st.Shed)
	}
}

// TestServeSaturation429: admission at MaxInflight is 429 (back off),
// distinct from the 503 shed.
func TestServeSaturation429(t *testing.T) {
	eng, err := engine.New(engine.Options{Workers: 1, MaxInflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := New(eng, Options{Keep: 8})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); eng.Close() })

	// Occupy the single admission slot with a job gated on a channel.
	gate, release := gateWorker(t, eng)
	defer release()
	resp, out := postJSON(t, ts.URL+"/v1/factor", `{"n":8,"seed":1,"workers":1}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated factor: %d %v, want 429", resp.StatusCode, out)
	}
	release()
	if err := gate.Wait(); err != nil {
		t.Fatalf("gate job: %v", err)
	}
	resp, out = postJSON(t, ts.URL+"/v1/factor", `{"n":8,"seed":1,"workers":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("factor after release: %d %v", resp.StatusCode, out)
	}
}

// TestServeErrorStatusTable pins the package's error-to-status table:
// every sentinel and typed error maps to its status, bare and wrapped
// with %w, so a == or a type assertion in place of errors.Is/As fails
// here on the wrapped row.
func TestServeErrorStatusTable(t *testing.T) {
	solveError := func(w http.ResponseWriter, err error) { jobError(w, err, "solve") }
	cases := []struct {
		name       string
		reply      func(http.ResponseWriter, error)
		err        error
		status     int
		retryAfter bool
		prefix     float64 // solvablePrefix, or -1 for none
	}{
		{"saturated", submitError, engine.ErrSaturated, http.StatusTooManyRequests, true, -1},
		{"deadline", submitError, context.DeadlineExceeded, http.StatusServiceUnavailable, true, -1},
		{"deadline-queued", solveError, context.DeadlineExceeded, http.StatusServiceUnavailable, true, -1},
		{"bad-submit", submitError, errors.New("bad options"), http.StatusBadRequest, false, -1},
		{"singular", solveError, &core.SingularSolveError{Prefix: 7, N: 10}, http.StatusUnprocessableEntity, false, 7},
		{"solve-failed", solveError, errors.New("broken"), http.StatusUnprocessableEntity, false, -1},
	}
	for _, tc := range cases {
		for _, wrapped := range []bool{false, true} {
			err := tc.err
			name := tc.name
			if wrapped {
				err = fmt.Errorf("x: %w", err)
				name += "/wrapped"
			}
			t.Run(name, func(t *testing.T) {
				rec := httptest.NewRecorder()
				tc.reply(rec, err)
				if rec.Code != tc.status {
					t.Fatalf("status %d, want %d (%s)", rec.Code, tc.status, rec.Body)
				}
				if got := rec.Header().Get("Retry-After") != ""; got != tc.retryAfter {
					t.Fatalf("Retry-After present %v, want %v", got, tc.retryAfter)
				}
				var out map[string]any
				if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
					t.Fatalf("reply is not JSON: %v: %s", err, rec.Body)
				}
				if p, ok := out["solvablePrefix"].(float64); ok != (tc.prefix >= 0) || ok && p != tc.prefix {
					t.Fatalf("solvablePrefix %v (present %v), want %v", p, ok, tc.prefix)
				}
			})
		}
	}
}

// TestServeClientGoneCancelsQueuedJob: the handlers submit under the
// request context, so a factor or solve whose client disconnects while
// its job still waits in a lane is withdrawn — it never starts, and its
// admission slot is free again. (A running job still runs to the end.)
func TestServeClientGoneCancelsQueuedJob(t *testing.T) {
	eng, err := engine.New(engine.Options{Workers: 1, MaxInflight: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := New(eng, Options{Keep: 8})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); eng.Close() })
	resp, out := postJSON(t, ts.URL+"/v1/factor", `{"n":8,"seed":1,"workers":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("factor: %d %v", resp.StatusCode, out)
	}
	id := out["id"].(string)
	await := func(what string, ok func(engine.Stats) bool) {
		t.Helper()
		awaitStats(t, eng, what, ok)
	}

	// Hold the only worker with a job gated on a channel.
	gate, release := gateWorker(t, eng)
	defer release()
	await("the gate job to start", func(st engine.Stats) bool { return st.Active == 1 })

	for i, c := range []struct{ path, body string }{
		{"/v1/factor", `{"n":8,"seed":2,"workers":1}`},
		{"/v1/solve", fmt.Sprintf(`{"id":%q,"b":[1,1,1,1,1,1,1,1]}`, id)},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() {
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+c.path, strings.NewReader(c.body))
			if err != nil {
				errc <- err
				return
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
			errc <- err
		}()
		await(c.path+" to queue", func(st engine.Stats) bool { return st.Pending == 1 })
		cancel() // the client goes away
		if err := <-errc; err == nil {
			t.Fatalf("%s: cancelled request got a reply", c.path)
		}
		await(c.path+" to be withdrawn", func(st engine.Stats) bool { return st.Cancelled == int64(i+1) })
		if st := eng.Stats(); st.Pending != 0 || st.JobsDone != 1 {
			t.Fatalf("%s: withdrawn job left state behind: %+v", c.path, st)
		}
	}

	// Both slots were given back: MaxInflight is 2 and the gate holds
	// one, so exactly one more submission fits.
	again, err := eng.TrySubmit(context.Background(), engine.FactorWork(mat.Random(8, 8, rand.New(rand.NewSource(3)))), core.Options{})
	if err != nil {
		t.Fatalf("admission slot not freed: %v", err)
	}
	release()
	if err := gate.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := again.Wait(); err != nil {
		t.Fatal(err)
	}
	// Only the first factor, the gate and the last job ever ran; the
	// withdrawn factor stored nothing.
	if st := eng.Stats(); st.JobsDone != 3 || st.JobsFailed != 2 {
		t.Errorf("JobsDone %d JobsFailed %d, want 3 and 2", st.JobsDone, st.JobsFailed)
	}
	if n := s.Store().Len(); n != 1 {
		t.Errorf("store holds %d factorizations, want 1", n)
	}
}

// gateWorker submits a job whose first task blocks until release is
// called, holding one worker (and one admission slot) of eng. release
// may be called more than once.
func gateWorker(t *testing.T, eng *engine.Engine) (*engine.Job, func()) {
	t.Helper()
	ch := make(chan struct{})
	var once sync.Once
	gate, err := eng.Submit(context.Background(), engine.FactorWork(mat.Random(96, 96, rand.New(rand.NewSource(1)))), core.Options{
		Workers: 1,
		Noise:   func(int) time.Duration { once.Do(func() { <-ch }); return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	var rel sync.Once
	return gate, func() { rel.Do(func() { close(ch) }) }
}

// awaitStats polls eng until ok holds, failing after 10 s.
func awaitStats(t *testing.T, eng *engine.Engine, what string, ok func(engine.Stats) bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !ok(eng.Stats()); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: %+v", what, eng.Stats())
		}
	}
}

// TestServeQueuedDeadline503: a job still queued when its request's
// deadline passes is withdrawn then, not when a worker frees. With the
// only worker held by a gated job, a factor and a solve carrying
// deadlineMs each get 503 with Retry-After while the gate still holds;
// Stats.Shed counts them, and the store does not change.
func TestServeQueuedDeadline503(t *testing.T) {
	eng, err := engine.New(engine.Options{Workers: 1, MaxInflight: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := New(eng, Options{Keep: 8})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); eng.Close() })
	resp, out := postJSON(t, ts.URL+"/v1/factor", `{"n":8,"seed":1,"workers":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("factor: %d %v", resp.StatusCode, out)
	}
	id := out["id"].(string)
	stored := s.Store().Stats()

	gate, release := gateWorker(t, eng)
	defer release() // before ts.Close, which waits for the handlers
	awaitStats(t, eng, "the gate job to start", func(st engine.Stats) bool { return st.Active == 1 })

	client := &http.Client{Timeout: 5 * time.Second}
	for i, c := range []struct{ path, body string }{
		{"/v1/factor", `{"n":8,"seed":2,"workers":1,"deadlineMs":50}`},
		{"/v1/solve", fmt.Sprintf(`{"id":%q,"b":[1,1,1,1,1,1,1,1],"deadlineMs":50}`, id)},
	} {
		resp, err := client.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s: no reply while the gate holds: %v", c.path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s: %d (Retry-After %q) %s, want 503 with Retry-After",
				c.path, resp.StatusCode, resp.Header.Get("Retry-After"), body)
		}
		select {
		case <-gate.Done():
			t.Fatalf("%s: the gate job finished before the reply", c.path)
		default:
		}
		if st := eng.Stats(); st.Shed != int64(i+1) || st.Cancelled != 0 || st.Pending != 0 {
			t.Fatalf("%s: Shed %d Cancelled %d Pending %d, want %d, 0, 0", c.path, st.Shed, st.Cancelled, st.Pending, i+1)
		}
	}
	if st := s.Store().Stats(); st != stored {
		t.Errorf("store changed: %+v, was %+v", st, stored)
	}
	release()
	if err := gate.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestServeGeneratedMatrixBounded: a generated matrix is held to the
// same bytes as an explicit one — n*n*8 over MaxBody is a 400 on both
// factor endpoints, with no allocation attempted (n = 4e9 used to panic
// the handler in mat.New, n = 1e5 to ask for 80 GB), while sizes under
// the cap still factor.
func TestServeGeneratedMatrixBounded(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, path := range []string{"/v1/factor", "/v1/cholesky"} {
		for _, n := range []string{"4000000000", "100000", "5793"} { // 5793^2*8 is just over 256 MiB
			resp, out := postJSON(t, ts.URL+path, `{"n":`+n+`}`)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s n=%s: %d %v, want 400", path, n, resp.StatusCode, out)
			}
		}
	}
	resp, out := postJSON(t, ts.URL+"/v1/factor", `{"n":512,"workers":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("n=512 under the default cap: %d %v", resp.StatusCode, out)
	}
}

// TestServeBlockGridBounded: a factor or solve whose block grid exceeds
// MaxBlocks is a 400 naming the limit before any job is submitted — a
// 20-byte body naming block 1 used to buy a cubically growing graph —
// while small blocks under the bound still run, and the largest
// generated matrix the default cap admits passes at the default block.
func TestServeBlockGridBounded(t *testing.T) {
	if err := checkBlockGrid(5792, 5792, 0); err != nil {
		t.Fatalf("default block at the default cap's largest n: %v", err)
	}
	if err := checkBlockGrid(1<<30, 1, 1<<62); err != nil {
		t.Fatalf("huge block: %v", err)
	}
	s, ts := newTestServer(t, Options{})
	resp, out := postJSON(t, ts.URL+"/v1/factor", `{"n":256,"workers":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("factor n=256 at the default block: %d %v", resp.StatusCode, out)
	}
	id := out["id"].(string)
	ones := strings.Repeat("1,", 255) + "1"
	jobs := func() int64 { st := s.eng.Stats(); return st.JobsDone + st.JobsFailed }
	before := jobs()
	limit := fmt.Sprintf("%d-block limit", MaxBlocks)
	for _, c := range []struct{ path, body string }{
		{"/v1/factor", `{"n":512,"block":1}`},
		{"/v1/cholesky", `{"n":512,"block":1}`},
		{"/v1/factor", `{"rows":182,"cols":182,"block":1,"data":[` + strings.Repeat("1,", 182*182-1) + `1]}`},
		{"/v1/solve", fmt.Sprintf(`{"id":%q,"block":1,"b":[%s]}`, id, ones)},
	} {
		resp, out := postJSON(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(fmt.Sprint(out["error"]), limit) {
			t.Errorf("%s %.40s: %d %v, want 400 naming the %s", c.path, c.body, resp.StatusCode, out, limit)
		}
	}
	if got := jobs(); got != before {
		t.Fatalf("refused requests reached the engine: jobs %d -> %d", before, got)
	}
	for _, c := range []struct{ path, body string }{
		{"/v1/factor", `{"n":64,"block":2,"workers":1}`},
		{"/v1/cholesky", `{"n":64,"block":2,"workers":1}`},
		{"/v1/solve", fmt.Sprintf(`{"id":%q,"block":4,"b":[%s]}`, id, ones)},
	} {
		if resp, out := postJSON(t, ts.URL+c.path, c.body); resp.StatusCode != http.StatusOK {
			t.Errorf("%s %s under the bound: %d %v", c.path, c.body, resp.StatusCode, out)
		}
	}
}

// TestServeClassAndStats: replies echo the job class the engine's size
// rule gives — a 16x16 LU small, a 128x128 large — and /v1/stats
// exposes per-class digests plus the store snapshot.
func TestServeClassAndStats(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, out := postJSON(t, ts.URL+"/v1/factor", `{"n":16,"seed":1,"workers":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("factor: %d %v", resp.StatusCode, out)
	}
	if out["class"] != "small" { // 16^3 flops is far under any threshold
		t.Fatalf("tiny factor classified %v, want small", out["class"])
	}
	resp, out = postJSON(t, ts.URL+"/v1/factor", `{"n":128,"seed":1,"workers":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("factor: %d %v", resp.StatusCode, out)
	}
	if out["class"] != "large" { // 2/3 128^3 flops is over the threshold
		t.Fatalf("128x128 factor classified %v, want large", out["class"])
	}

	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	engStats, ok := stats["engine"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing engine block: %v", stats)
	}
	small, ok := engStats["Small"].(map[string]any)
	if !ok {
		t.Fatalf("engine stats missing Small class digest: %v", engStats)
	}
	if small["Done"].(float64) < 1 {
		t.Fatalf("small-class Done %v, want >= 1", small["Done"])
	}
	store, ok := stats["store"].(map[string]any)
	if !ok || store["count"].(float64) != 2 {
		t.Fatalf("store snapshot %v, want count 2", stats["store"])
	}
	if stats["draining"] != false {
		t.Fatalf("draining %v, want false", stats["draining"])
	}
}

// TestServeSolveHugeNRHSRejected: an absurd nrhs must be a 400, not an
// overflow that sneaks past the n*nrhs length check.
func TestServeSolveHugeNRHSRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, out := postJSON(t, ts.URL+"/v1/factor", `{"n":3,"seed":2,"workers":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("factor: %d %v", resp.StatusCode, out)
	}
	id := out["id"].(string)
	// 3 * 6148914691236517206 wraps to 2 in uint64 arithmetic; the
	// handler must still reject the two-entry rhs.
	resp, _ = postJSON(t, ts.URL+"/v1/solve",
		fmt.Sprintf(`{"id":%q,"b":[1,2],"nrhs":6148914691236517206}`, id))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("huge nrhs: %d, want 400", resp.StatusCode)
	}
}

// TestServeFactorHugeDimsRejected: rows*cols that wraps around to
// len(data) must be a 400 on both factor endpoints, not a panic in the
// handler: 4611686018427387905 * 4 = 2^64 + 4.
func TestServeFactorHugeDimsRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, path := range []string{"/v1/factor", "/v1/cholesky"} {
		for _, body := range []string{
			`{"rows":4611686018427387905,"cols":4,"data":[1,2,3,4]}`,
			`{"rows":4,"cols":4611686018427387905,"data":[1,2,3,4]}`,
			`{"rows":2,"cols":3,"data":[1,2,3,4]}`,
		} {
			resp, out := postJSON(t, ts.URL+path, body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: %d %v, want 400", path, body, resp.StatusCode, out)
			}
		}
	}
}

// TestServeHealthAndReadiness: /healthz is always 200 while serving;
// /readyz flips to 503 once the shard drains.
func TestServeHealthAndReadiness(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d, want 200", path, resp.StatusCode)
		}
	}
	resp, out := postJSON(t, ts.URL+"/v1/admin/drain", `{}`)
	if resp.StatusCode != http.StatusOK || out["draining"] != true {
		t.Fatalf("drain: %d %v", resp.StatusCode, out)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: %d, want 200", resp.StatusCode)
	}
}

// TestServeDrainRefusesNewJobs: after /v1/admin/drain, factor, solve
// and import all 503 (Retry-After set) while stats and export still
// answer; drain is idempotent.
func TestServeDrainRefusesNewJobs(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, out := postJSON(t, ts.URL+"/v1/factor", `{"n":8,"seed":1,"workers":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("factor: %d %v", resp.StatusCode, out)
	}
	id := out["id"].(string)
	for i := 0; i < 2; i++ { // idempotent
		resp, out = postJSON(t, ts.URL+"/v1/admin/drain", `{}`)
		if resp.StatusCode != http.StatusOK || out["draining"] != true {
			t.Fatalf("drain #%d: %d %v", i+1, resp.StatusCode, out)
		}
	}
	resp, _ = postJSON(t, ts.URL+"/v1/factor", `{"n":8,"seed":1,"workers":1}`)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("factor while draining: %d, want 503 + Retry-After", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/solve", fmt.Sprintf(`{"id":%q,"b":[1,1,1,1,1,1,1,1]}`, id))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("solve while draining: %d, want 503", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/admin/import?id=x", strings.NewReader("data"))
	req.Header.Set("Content-Type", "application/octet-stream")
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("import while draining: %d, want 503", r2.StatusCode)
	}
	// Export of kept state still works (drain migration reads it).
	r3, err := http.Get(ts.URL + "/v1/admin/export?id=" + id)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r3.Body)
	r3.Body.Close()
	if r3.StatusCode != http.StatusOK {
		t.Fatalf("export while draining: %d, want 200", r3.StatusCode)
	}
}

// TestServeExportImportRoundTrip: a factorization exported from one
// shard and imported into another solves identically, byte for byte.
func TestServeExportImportRoundTrip(t *testing.T) {
	_, src := newTestServer(t, Options{})
	_, dst := newTestServer(t, Options{})

	resp, out := postJSON(t, src.URL+"/v1/factor", `{"n":24,"seed":9,"workers":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("factor: %d %v", resp.StatusCode, out)
	}
	id := out["id"].(string)

	exp, err := http.Get(src.URL + "/v1/admin/export?id=" + id)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := io.ReadAll(exp.Body)
	exp.Body.Close()
	if err != nil || exp.StatusCode != http.StatusOK {
		t.Fatalf("export: %d %v", exp.StatusCode, err)
	}
	if ct := exp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("export Content-Type %q", ct)
	}

	req, _ := http.NewRequest(http.MethodPost, dst.URL+"/v1/admin/import?id="+id, bytes.NewReader(wire))
	req.Header.Set("Content-Type", "application/octet-stream")
	imp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, imp.Body)
	imp.Body.Close()
	if imp.StatusCode != http.StatusOK {
		t.Fatalf("import: %d", imp.StatusCode)
	}

	b := strings.Repeat("1,", 23) + "1"
	_, x1 := postJSON(t, src.URL+"/v1/solve", fmt.Sprintf(`{"id":%q,"b":[%s]}`, id, b))
	_, x2 := postJSON(t, dst.URL+"/v1/solve", fmt.Sprintf(`{"id":%q,"b":[%s]}`, id, b))
	a1, a2 := x1["x"].([]any), x2["x"].([]any)
	if len(a1) != 24 || len(a2) != 24 {
		t.Fatalf("solution lengths %d / %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i].(float64) != a2[i].(float64) {
			t.Fatalf("imported solve diverges at %d: %v vs %v", i, a1[i], a2[i])
		}
	}

	// Export listing includes the id; unknown export is 404; garbage
	// import is 400.
	lr, lout := func() (*http.Response, map[string]any) {
		r, err := http.Get(src.URL + "/v1/admin/export")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var m map[string]any
		json.NewDecoder(r.Body).Decode(&m)
		return r, m
	}()
	if lr.StatusCode != http.StatusOK || len(lout["ids"].([]any)) != 1 {
		t.Fatalf("export listing: %d %v", lr.StatusCode, lout)
	}
	nf, err := http.Get(src.URL + "/v1/admin/export?id=f-404")
	if err != nil {
		t.Fatal(err)
	}
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Fatalf("export of unknown id: %d, want 404", nf.StatusCode)
	}
	bad, _ := http.NewRequest(http.MethodPost, dst.URL+"/v1/admin/import?id=z", strings.NewReader("junk"))
	bad.Header.Set("Content-Type", "application/octet-stream")
	br, err := http.DefaultClient.Do(bad)
	if err != nil {
		t.Fatal(err)
	}
	br.Body.Close()
	if br.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage import: %d, want 400", br.StatusCode)
	}
}

// readCounter counts the reads of a request body.
type readCounter struct {
	r     io.Reader
	reads int
}

func (c *readCounter) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestServeImportBounded: the import route decodes its body as it
// arrives, so what a body claims must be refused before it is
// allocated. A 64-byte frame whose L header claims 2^15 x 2^15 (8 GiB)
// is a 400 that allocates under 1 MB; a declared length over the cap is
// a 413 before any body byte is read; and a body of undeclared length
// over the cap is a 413 however much of it the decoder read.
func TestServeImportBounded(t *testing.T) {
	s, _ := newTestServer(t, Options{MaxBody: 1 << 20})
	h := s.Handler()
	post := func(body io.Reader, length int64) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/admin/import?id=x", body)
		req.Header.Set("Content-Type", "application/octet-stream")
		req.ContentLength = length
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	le := binary.LittleEndian
	frame := le.AppendUint32([]byte("HSDW\x01\x01"), 2)
	frame = le.AppendUint32(le.AppendUint32(frame, 1), 0)
	frame = append(frame, "HSDL\x01\x02"...)
	for _, v := range []uint32{1 << 15, 1 << 15, 128, 1, 1} {
		frame = le.AppendUint32(frame, v)
	}
	frame = append(frame, make([]byte, 64-len(frame))...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := post(bytes.NewReader(frame), int64(len(frame)))
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("64-byte frame claiming an 8 GiB L: %d %s, want 400", rec.Code, rec.Body)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("refusing it allocated %d bytes, want under 1 MB", alloc)
	}

	body := &readCounter{r: bytes.NewReader(make([]byte, 64))}
	if rec := post(body, 1<<20+1); rec.Code != http.StatusRequestEntityTooLarge || body.reads != 0 {
		t.Fatalf("declared length over the cap: %d after %d reads, want 413 before any", rec.Code, body.reads)
	}
	over := append(append([]byte(nil), frame[:26]...), make([]byte, 2<<20)...)
	if rec := post(bytes.NewReader(over), -1); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("undeclared length over the cap: %d %s, want 413", rec.Code, rec.Body)
	}
	if s.Store().Len() != 0 {
		t.Fatalf("store holds %d factorizations after refused imports", s.Store().Len())
	}
}

// TestServeExplicitFactorID: a factor request carrying an id keeps the
// factorization under exactly that id. A direct client names it in the
// body; the router names it as ?id= beside the client's untouched body,
// and a body that names one too is refused — the id is the router's.
func TestServeExplicitFactorID(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	resp, out := postJSON(t, ts.URL+"/v1/factor", `{"id":"f-77","n":8,"seed":1,"workers":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("factor: %d %v", resp.StatusCode, out)
	}
	if out["id"] != "f-77" {
		t.Fatalf("explicit id echoed as %v", out["id"])
	}
	if _, ok := s.Store().Get("f-77"); !ok {
		t.Fatal("explicit id not resident")
	}
	resp, _ = postJSON(t, ts.URL+"/v1/solve", `{"id":"f-77","b":[1,1,1,1,1,1,1,1]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve by explicit id: %d", resp.StatusCode)
	}

	resp, out = postJSON(t, ts.URL+"/v1/cholesky?id=c-78", `{"n":8,"seed":1,"workers":1}`)
	if resp.StatusCode != http.StatusOK || out["id"] != "c-78" {
		t.Fatalf("factor with ?id=: %d %v", resp.StatusCode, out)
	}
	if _, ok := s.Store().Get("c-78"); !ok {
		t.Fatal("query-parameter id not resident")
	}
	resp, out = postJSON(t, ts.URL+"/v1/factor?id=f-79", `{"id":"f-80","n":8,"seed":1,"workers":1}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(fmt.Sprint(out["error"]), "router-assigned") {
		t.Fatalf("id in both query and body: %d %v, want 400", resp.StatusCode, out)
	}
}
