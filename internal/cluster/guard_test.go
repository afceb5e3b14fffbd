package cluster_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
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
// limit, trailing data after the JSON value 400, every error body
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
			{"/v1/solve", "POST", jsonType}, {"/v1/cholesky/solve", "POST", jsonType},
			{"/v1/admin/import", "POST", bytesType}, {"/v1/admin/drain", "POST", jsonType},
			{"/v1/stats", "GET", ""}, {"/v1/admin/export", "GET", ""},
			{"/healthz", "GET", ""}, {"/readyz", "GET", ""},
		}},
		{"router", rt.Handler(), []route{
			{"/v1/factor", "POST", jsonType}, {"/v1/cholesky", "POST", jsonType},
			{"/v1/solve", "POST", jsonType}, {"/v1/cholesky/solve", "POST", jsonType},
			{"/v1/admin/join", "POST", jsonType}, {"/v1/admin/drain", "POST", jsonType},
			{"/v1/stats", "GET", ""}, {"/healthz", "GET", ""}, {"/readyz", "GET", ""},
		}},
	}

	for _, tier := range tiers {
		// do sends one request and, for an error status, checks the body
		// is the one error shape.
		do := func(method, path, contentType, body string) *httptest.ResponseRecorder {
			t.Helper()
			req := httptest.NewRequest(method, path, strings.NewReader(body))
			if contentType != "" {
				req.Header.Set("Content-Type", contentType)
			}
			rec := httptest.NewRecorder()
			tier.h.ServeHTTP(rec, req)
			if rec.Code >= 400 {
				var e struct {
					Error string `json:"error"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
					t.Errorf("%s %s %s: %d body %q is not {\"error\": ...}", tier.name, method, path, rec.Code, rec.Body)
				}
			}
			return rec
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
				rec := do(method, r.path, jsonType, "{}")
				if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != r.method {
					t.Errorf("%s %s %s: %d Allow %q, want 405 Allow %s", tier.name, method, r.path, rec.Code, rec.Header().Get("Allow"), r.method)
				}
			}
			if r.method != "POST" {
				if rec := do("GET", r.path, "", ""); guarded(rec.Code) {
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
				rec := do("POST", r.path, ct, "{}")
				if want && guarded(rec.Code) {
					t.Errorf("%s POST %s Content-Type %q: refused with %d %s", tier.name, r.path, ct, rec.Code, rec.Body)
				} else if !want && rec.Code != http.StatusUnsupportedMediaType {
					t.Errorf("%s POST %s Content-Type %q: %d, want 415", tier.name, r.path, ct, rec.Code)
				}
			}
			// One byte over the cap, the JSON value spanning all of it.
			over := `{"pad":"` + strings.Repeat("x", maxBody+1-len(`{"pad":""}`)) + `"}`
			rec := do("POST", r.path, r.media, over)
			if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), fmt.Sprint(maxBody)) {
				t.Errorf("%s POST %s with %d bytes: %d %s, want 413 naming %d", tier.name, r.path, len(over), rec.Code, rec.Body, maxBody)
			}
			if r.media == jsonType {
				if rec := do("POST", r.path, jsonType, `{"n":4} []`); rec.Code != http.StatusBadRequest {
					t.Errorf("%s POST %s with trailing data: %d %s, want 400", tier.name, r.path, rec.Code, rec.Body)
				}
			}
		}
	}
}
