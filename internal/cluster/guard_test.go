package cluster_test

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/serve"
)

// TestGuardTable runs one request-hygiene table against both HTTP
// tiers — a shard's serve.Handler() and the Router.Handler() in front of
// it — because both are built from the same guards (guard.go) and must
// answer a malformed request the same way: wrong method 405 + Allow,
// wrong Content-Type 415, a body one byte over the cap 413 naming the
// limit, a Content-Length over the cap 413 before any buffer is sized
// from it, trailing data after the JSON value 400, every error body
// {"error": ...}.
func TestGuardTable(t *testing.T) {
	const maxBody = 256
	eng, err := engine.New(engine.Options{Workers: 1, MaxInflight: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	shard := serve.New(eng, serve.Options{Keep: 4, MaxBody: maxBody})
	shardHTTP := httptest.NewServer(shard.Handler())
	defer shardHTTP.Close()
	rt, err := cluster.NewRouter(cluster.RouterOptions{
		Shards:   []cluster.ShardInfo{{Name: "s1", URL: shardHTTP.URL}},
		Replicas: 1, MaxBody: maxBody,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	const jsonType, bytesType = "application/json", "application/octet-stream"
	type route struct{ path, method, media string }
	tiers := []struct {
		name   string
		h      http.Handler
		routes []route
	}{
		{"shard", shard.Handler(), []route{
			{"/v1/factor", "POST", jsonType}, {"/v1/cholesky", "POST", jsonType},
			{"/v1/solve", "POST", jsonType},
			{"/v1/admin/import", "POST", bytesType}, {"/v1/admin/drain", "POST", jsonType},
			{"/v1/stats", "GET", ""}, {"/v1/admin/export", "GET", ""},
			{"/healthz", "GET", ""}, {"/readyz", "GET", ""},
		}},
		{"router", rt.Handler(), []route{
			{"/v1/factor", "POST", jsonType}, {"/v1/cholesky", "POST", jsonType},
			{"/v1/solve", "POST", jsonType},
			{"/v1/admin/join", "POST", jsonType}, {"/v1/admin/drain", "POST", jsonType},
			{"/v1/stats", "GET", ""}, {"/healthz", "GET", ""}, {"/readyz", "GET", ""},
		}},
	}

	for _, tier := range tiers {
		// do sends one request, its Content-Length the body's unless
		// length says otherwise, and, for an error status, checks the
		// body is the one error shape. It returns the bytes the handler
		// allocated too, counted across every goroutine.
		do := func(method, path, contentType, body string, length ...int64) (*httptest.ResponseRecorder, uint64) {
			t.Helper()
			req := httptest.NewRequest(method, path, strings.NewReader(body))
			if contentType != "" {
				req.Header.Set("Content-Type", contentType)
			}
			for _, n := range length {
				req.ContentLength = n
			}
			rec := httptest.NewRecorder()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			tier.h.ServeHTTP(rec, req)
			runtime.ReadMemStats(&after)
			if rec.Code >= 400 {
				var e struct {
					Error string `json:"error"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
					t.Errorf("%s %s %s: %d body %q is not {\"error\": ...}", tier.name, method, path, rec.Code, rec.Body)
				}
			}
			return rec, after.TotalAlloc - before.TotalAlloc
		}
		guarded := func(code int) bool {
			return code == http.StatusMethodNotAllowed || code == http.StatusUnsupportedMediaType ||
				code == http.StatusRequestEntityTooLarge
		}
		for _, r := range tier.routes {
			for _, method := range []string{"GET", "POST", "PUT", "DELETE"} {
				if method == r.method {
					continue
				}
				rec, _ := do(method, r.path, jsonType, "{}")
				if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != r.method {
					t.Errorf("%s %s %s: %d Allow %q, want 405 Allow %s", tier.name, method, r.path, rec.Code, rec.Header().Get("Allow"), r.method)
				}
			}
			if r.method != "POST" {
				if rec, _ := do("GET", r.path, "", ""); guarded(rec.Code) {
					t.Errorf("%s GET %s: refused with %d", tier.name, r.path, rec.Code)
				}
				continue
			}
			// Content-Type: a JSON route takes JSON, with parameters or
			// unnamed; a binary route takes exactly its type.
			for ct, want := range map[string]bool{
				"text/plain":                      false,
				"":                                r.media == jsonType,
				"application/json; charset=utf-8": r.media == jsonType,
				bytesType:                         r.media == bytesType,
			} {
				rec, _ := do("POST", r.path, ct, "{}")
				if want && guarded(rec.Code) {
					t.Errorf("%s POST %s Content-Type %q: refused with %d %s", tier.name, r.path, ct, rec.Code, rec.Body)
				} else if !want && rec.Code != http.StatusUnsupportedMediaType {
					t.Errorf("%s POST %s Content-Type %q: %d, want 415", tier.name, r.path, ct, rec.Code)
				}
			}
			// One byte over the cap, the JSON value spanning all of it.
			over := `{"pad":"` + strings.Repeat("x", maxBody+1-len(`{"pad":""}`)) + `"}`
			rec, _ := do("POST", r.path, r.media, over)
			if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), fmt.Sprint(maxBody)) {
				t.Errorf("%s POST %s with %d bytes: %d %s, want 413 naming %d", tier.name, r.path, len(over), rec.Code, rec.Body, maxBody)
			}
			// A declared length over the cap is refused before any read:
			// the header never sizes an allocation.
			rec, alloc := do("POST", r.path, r.media, "{}", 1<<40)
			if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), fmt.Sprint(maxBody)) || alloc >= 1<<20 {
				t.Errorf("%s POST %s declaring 1<<40 bytes: %d %s after %d bytes allocated, want 413 naming %d under 1 MiB",
					tier.name, r.path, rec.Code, rec.Body, alloc, maxBody)
			}
			if r.media == jsonType {
				if rec, _ := do("POST", r.path, jsonType, `{"n":4} []`); rec.Code != http.StatusBadRequest {
					t.Errorf("%s POST %s with trailing data: %d %s, want 400", tier.name, r.path, rec.Code, rec.Body)
				}
			}
		}
	}
}

// TestWriteJSONUnencodable500: a reply JSON cannot encode is a 500
// naming the encoding error, not a 200 with an empty body: WriteJSON
// sends its status with the first body byte, and the encoder fails
// before writing any.
func TestWriteJSONUnencodable500(t *testing.T) {
	rec := httptest.NewRecorder()
	cluster.WriteJSON(rec, http.StatusOK, map[string]float64{"x": math.Inf(1)})
	var out map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("reply %q is not one JSON object: %v", rec.Body, err)
	}
	if rec.Code != http.StatusInternalServerError || !strings.HasPrefix(out["error"], "encode reply: json: unsupported value") {
		t.Fatalf("unencodable reply: %d %v, want 500 naming the encoding error", rec.Code, out)
	}
}
