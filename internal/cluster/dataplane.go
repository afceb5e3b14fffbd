package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/url"
	"time"
)

// Data plane: factor and solve requests reach the shards as the bytes
// the client sent; the router reads a solve's id and never a matrix.

// post sends body to a shard path under ctx; transport failures count
// against the shard's health, unless ctx ended: a client that gave up
// says nothing about the shard.
func (rt *Router) post(ctx context.Context, s *shardState, path, ct string, body []byte) (*http.Response, error) {
	s.requests.Add(1)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url+path, bytes.NewReader(body))
	if err != nil {
		rt.noteResult(s, err)
		return nil, err
	}
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
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// try posts body to path on the eligible candidates in order until one
// answers with a status that is not retryable, and returns that shard
// and its response. When every answer was retryable it returns the last
// one — the client sees why the last candidate refused — and when no
// candidate was eligible or reachable, a nil response. Every attempt
// after the first counts as a failover. The attempts carry the client's
// ctx; once it ends, try stops. The caller closes the body.
func (rt *Router) try(ctx context.Context, candidates []string, eligible func(*shardState) bool, retryable func(status int) bool, path string, body []byte) (*shardState, *http.Response) {
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
		resp, err := rt.post(ctx, s, path, mediaJSON, body)
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

// An owner that shed the job or is saturated (>= 500, 429) passes a
// factor to the next owner in the set — the key still hashes to it. A
// solve also moves on from a 404: the holder lost the entry (LRU), and
// another replica can still answer.
func factorRetryable(status int) bool {
	return status >= 500 || status == http.StatusTooManyRequests
}

func solveRetryable(status int) bool {
	return factorRetryable(status) || status == http.StatusNotFound
}

// handleFactor mints a key, factors on its first placeable owner's path
// endpoint (the client's bytes under the client's ctx, the key as ?id=;
// a body with its own id is the shard's 400), then copies the result to
// the other routable owners, read again to see a ring swapped meanwhile
// (a later swap lists the key in the rebalance's second pass).
func (rt *Router) handleFactor(ctx context.Context, w http.ResponseWriter, body []byte, prefix, path string) {
	key, cs := rt.mint(prefix)
	rt.factors.Add(1)

	s, resp := rt.try(ctx, cs, rt.placeable, factorRetryable, path+"?id="+url.QueryEscape(key), body)
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

// handleSolve routes a solve to the path endpoint of the key's routable
// owners, rotating the starting one for read scaling and failing over
// past dead or non-holding shards, under the client's ctx. When no owner
// answers, or every answer is a 404 while one of the owners is
// unroutable (it may hold the key), the reply is the typed ownerSetDown
// 503; otherwise the shard's answer.
func (rt *Router) handleSolve(ctx context.Context, w http.ResponseWriter, body []byte, path string) {
	var req solveKey
	if err := DecodeJSON(body, &req); err != nil {
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
	_, resp := rt.try(ctx, up, rt.routable, solveRetryable, path, body)
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
