package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"
)

// Data plane: factor and solve requests reach the shards as the bytes
// the client sent; the router reads a solve's id and never a matrix.

// post sends body to a shard path; transport failures count against the
// shard's health.
func (rt *Router) post(s *shardState, path, ct string, body []byte) (*http.Response, error) {
	s.requests.Add(1)
	resp, err := rt.client.Post(s.url+path, ct, bytes.NewReader(body))
	rt.noteResult(s, err)
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
// after the first counts as a failover. The caller closes the body.
func (rt *Router) try(candidates []string, eligible func(*shardState) bool, retryable func(status int) bool, path string, body []byte) (*shardState, *http.Response) {
	var (
		from *shardState
		last *http.Response
	)
	tried := 0
	for _, name := range candidates {
		s := rt.shard(name)
		if s == nil || !eligible(s) {
			continue
		}
		if tried > 0 {
			rt.failovers.Add(1)
		}
		tried++
		resp, err := rt.post(s, path, mediaJSON, body)
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

// handleFactor places a factor job: the router assigns the key (prefix
// plus sequence number), hashes it to an owner set, factors on the first
// placeable owner's path endpoint — the client's bytes, the key riding
// along as ?id= — then copies the serialized factorization to the rest
// of the set. A body that carries its own id is the shard's 400.
func (rt *Router) handleFactor(w http.ResponseWriter, body []byte, prefix, path string) {
	key := fmt.Sprintf("%s-%d", prefix, rt.seq.Add(1))
	owners := rt.ownerSet(key)
	rt.factors.Add(1)

	start := time.Now()
	s, resp := rt.try(owners, rt.placeable, factorRetryable, path+"?id="+url.QueryEscape(key), body)
	if resp == nil {
		ownerSetDown(w, "no live owner for key "+key)
		return
	}
	if resp.StatusCode == http.StatusOK {
		holders := rt.migrateKey(key, []string{s.name}, owners)
		rt.observeRepLag(time.Since(start))
		rt.setHolders(key, holders)
	}
	relay(w, resp)
}

// solveKey is the part of a solve request the router reads: the id. Its
// right-hand side b is checked as JSON and dropped.
type solveKey struct {
	ID string `json:"id"`
}

func (*solveKey) BulkMember() (string, *[]float64) { return "b", nil }

// handleSolve routes a solve to the path endpoint of any shard holding
// the key, rotating the starting replica for read scaling and failing
// over past dead or evicted holders. Unknown keys are 404; keys whose
// every holder is gone get the typed ownerSetDown 503.
func (rt *Router) handleSolve(w http.ResponseWriter, body []byte, path string) {
	var req solveKey
	if err := DecodeJSON(body, &req); err != nil {
		HTTPError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if req.ID == "" {
		HTTPError(w, http.StatusBadRequest, "missing factorization id")
		return
	}
	holders, placed := rt.holders(req.ID)
	if !placed {
		HTTPError(w, http.StatusNotFound, "unknown factorization id %s", req.ID)
		return
	}
	rt.solves.Add(1)

	if n := len(holders); n > 1 {
		first := int(rt.rotor.Add(1)) % n
		holders = append(holders[first:n:n], holders[:first]...)
	}
	_, resp := rt.try(holders, rt.routable, solveRetryable, path, body)
	if resp == nil {
		ownerSetDown(w, "every shard holding "+req.ID+" is unreachable")
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
