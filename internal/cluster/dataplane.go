package cluster

import (
	"context"
	"io"
	"net/http"
	"net/url"
	"time"
)

// Data plane: factor and solve requests reach the shards as the bytes
// the client sent, forwarded through readers over the buffer postBody
// read them into; the router reads a solve's id and never a matrix.

// post sends the n bytes of body (n < 0: unknown) to a shard path under
// ctx; transport failures count against the shard's health, unless ctx
// ended: a client that gave up, or a source that failed, says nothing
// about the shard. A body reader rewinds as a new reader, for the
// transport's retry on a stale connection.
func (rt *Router) post(ctx context.Context, s *shardState, path, ct string, body io.Reader, n int64) (*http.Response, error) {
	s.requests.Add(1)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+path, body)
	if err != nil {
		rt.noteResult(s, err)
		return nil, err
	}
	if br, ok := body.(*bodyReader); ok {
		src := br.src
		req.GetBody = func() (io.ReadCloser, error) { return src.reader(), nil }
	}
	req.ContentLength = n
	req.Header.Set("Content-Type", ct)
	resp, err := rt.client.Do(req)
	if err == nil || ctx.Err() == nil {
		rt.noteResult(s, err)
	}
	return resp, err
}

func (rt *Router) get(s *shardState, path string) (*http.Response, error) {
	s.requests.Add(1)
	resp, err := rt.client.Get(s.url + path)
	rt.noteResult(s, err)
	return resp, err
}

// ownerSetDown is the typed 503 a request gets when every shard that
// could serve its key is gone.
func ownerSetDown(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", "1")
	WriteJSON(w, http.StatusServiceUnavailable, struct {
		Error        string `json:"error"`
		OwnerSetDown bool   `json:"ownerSetDown"`
	}{msg, true})
}

// relay copies a shard response through to the client.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	copyBuf(w, resp.Body)
}

// try posts b's bytes to path on the eligible candidates in order,
// under the client's ctx, until one answers a status that is not
// retryable, and returns that shard and response, else the last answer
// (nil when none was reachable). Every attempt after the first is a
// failover. The caller closes the body.
func (rt *Router) try(ctx context.Context, candidates []string, eligible func(*shardState) bool, retryable func(status int) bool, path string, b *body) (*shardState, *http.Response) {
	var (
		from *shardState
		last *http.Response
	)
	tried := 0
	for _, name := range candidates {
		if ctx.Err() != nil {
			break
		}
		s := rt.shard(name)
		if s == nil || !eligible(s) {
			continue
		}
		if tried > 0 {
			rt.failovers.Add(1)
		}
		tried++
		resp, err := rt.post(ctx, s, path, mediaJSON, b.reader(), int64(len(b.b)))
		if err != nil {
			continue
		}
		if last != nil {
			last.Body.Close()
		}
		from, last = s, resp
		if !retryable(resp.StatusCode) {
			break
		}
	}
	return from, last
}

// A factor moves on from an owner that shed it or is saturated (>= 500,
// 429); a solve also from a 404 (the holder evicted it, a replica may not).
func factorRetryable(status int) bool {
	return status >= 500 || status == http.StatusTooManyRequests
}

func solveRetryable(status int) bool {
	return factorRetryable(status) || status == http.StatusNotFound
}

// handleFactor mints a key, factors on its first placeable owner (the
// client's bytes under the client's ctx, the key as ?id=), then copies
// the result to the other routable owners, re-read in case the ring was
// swapped meanwhile (a later swap's second pass lists the key).
func (rt *Router) handleFactor(ctx context.Context, w http.ResponseWriter, b *body, prefix, path string) {
	key, cs := rt.mint(prefix)
	rt.factors.Add(1)

	s, resp := rt.try(ctx, cs, rt.placeable, factorRetryable, path+"?id="+url.QueryEscape(key), b)
	if resp == nil {
		ownerSetDown(w, "no live owner for key "+key)
		return
	}
	if resp.StatusCode == http.StatusOK {
		start := time.Now()
		want, _ := rt.owners(key, nil, rt.routable)
		rt.migrateKey(key, []string{s.name}, want)
		rt.observeRepLag(time.Since(start))
	}
	relay(w, resp)
}

// solveKey is the part of a solve request the router reads: the id. Its
// right-hand side b is checked as JSON and dropped.
type solveKey struct {
	ID string `json:"id"`
}

func (*solveKey) BulkMember() (string, *[]float64) { return "b", nil }

// handleSolve routes a solve to the key's routable owners from a
// rotating start, failing over past dead or non-holding shards, under
// the client's ctx. No answer, or only 404s while an owner is down (it
// may hold the key), is the typed ownerSetDown 503.
func (rt *Router) handleSolve(ctx context.Context, w http.ResponseWriter, b *body) {
	var req solveKey
	if err := decodeJSON(b.b, &req); err != nil {
		HTTPError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if req.ID == "" {
		HTTPError(w, http.StatusBadRequest, "missing factorization id")
		return
	}
	up, down := rt.owners(req.ID, nil, rt.routable)
	rt.solves.Add(1)

	if n := len(up); n > 1 {
		first := int(rt.rotor.Add(1)) % n
		up = append(up[first:n:n], up[:first]...)
	}
	_, resp := rt.try(ctx, up, rt.routable, solveRetryable, "/v1/solve", b)
	if resp != nil && down && resp.StatusCode == http.StatusNotFound {
		resp.Body.Close()
		resp = nil
	}
	if resp == nil {
		ownerSetDown(w, "no reachable shard holds "+req.ID)
		return
	}
	relay(w, resp)
}

// observeRepLag folds one factor-to-replicated latency into the EWMA.
func (rt *Router) observeRepLag(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	rt.mu.Lock()
	if rt.repLagMs == 0 {
		rt.repLagMs = ms
	} else {
		rt.repLagMs = 0.7*rt.repLagMs + 0.3*ms
	}
	rt.mu.Unlock()
}
