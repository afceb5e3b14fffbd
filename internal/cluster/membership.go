package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"time"
)

// Membership: shard health (transport errors, probes, eviction, rejoin),
// Join and Drain, and the key copy they share with factor replication.

// noteResult feeds one shard round trip into its health.
func (rt *Router) noteResult(s *shardState, err error) {
	if err != nil {
		rt.noteTransportError(s)
	} else {
		rt.noteAlive(s)
	}
}

// noteTransportError counts a failure; once FailAfter consecutive
// failures accumulate, settle marks the shard unhealthy.
func (rt *Router) noteTransportError(s *shardState) {
	s.errs.Add(1)
	if s.consecFails.Add(1) >= int64(rt.opt.FailAfter) {
		rt.settle(s)
	}
}

// noteAlive resets the failure streak. Only a streak that had reached
// FailAfter can have marked the shard unhealthy, so a healthy shard's
// success ends here, lock-free; an evicted one is routable again (its
// kept state may be stale or gone — solve failover covers the 404s).
func (rt *Router) noteAlive(s *shardState) {
	if s.consecFails.Swap(0) >= int64(rt.opt.FailAfter) {
		rt.settle(s)
	}
}

// settle makes s's health flag agree with its failure streak, re-read
// under mu so that racing successes and failures settle to the last
// streak either wrote. The ring is not touched: it holds every
// non-retired member, and routable screens the flag. settle takes only
// mu, never adminMu: transport errors surface inside Join/Drain
// migrations too, which already hold adminMu.
func (rt *Router) settle(s *shardState) {
	rt.mu.Lock()
	s.healthy = s.consecFails.Load() < int64(rt.opt.FailAfter)
	rt.mu.Unlock()
}

// probeLoop drives periodic health probes until Close.
func (rt *Router) probeLoop() {
	defer close(rt.done)
	t := time.NewTicker(rt.opt.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.ProbeNow()
		}
	}
}

// ProbeNow runs one synchronous health-probe pass over every
// non-retired shard. The in-process harness and tests call it directly
// instead of waiting out a probe interval.
func (rt *Router) ProbeNow() {
	for _, s := range rt.shardList() {
		rt.mu.RLock()
		retired := s.retired
		rt.mu.RUnlock()
		if retired {
			continue
		}
		if status, _, err := rt.boundedGet(s.url + "/healthz"); err != nil || status != http.StatusOK {
			rt.noteTransportError(s)
		} else {
			rt.noteAlive(s)
		}
	}
}

// probeTimeout bounds every request the router makes on its own behalf
// rather than a client's: health probes, the readiness check of a
// joining shard and the per-shard fetch of /v1/stats. A shard that
// accepts the connection and never answers costs each of them this
// long, not forever.
const probeTimeout = 2 * time.Second

// boundedGet GETs target under probeTimeout and returns the status with
// up to 1 MiB of the body. It touches no shard state; callers decide what
// a failure means.
func (rt *Router) boundedGet(target string) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	return resp.StatusCode, body, err
}

// exportFrom fetches the serialized factorization for key from a shard,
// into one buffer of the declared length when that is within MaxBody.
func (rt *Router) exportFrom(s *shardState, key string) ([]byte, error) {
	resp, err := rt.get(s, "/v1/admin/export?id="+url.QueryEscape(key))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("export %s from %s: status %d: %s", key, s.name, resp.StatusCode, bytes.TrimSpace(b))
	}
	return readSized(resp.Body, resp.ContentLength, rt.opt.MaxBody)
}

// importTo ships serialized factorization bytes to a shard under key.
func (rt *Router) importTo(s *shardState, key string, wire []byte) error {
	resp, err := rt.post(context.Background(), s, "/v1/admin/import?id="+url.QueryEscape(key), mediaBytes, wire)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("import %s to %s: status %d", key, s.name, resp.StatusCode)
	}
	return nil
}

// migrateKey makes every routable shard in want hold key, exporting
// once from the first routable current holder that still has it — at
// factor time the shard that just factored, in a rebalance any holder:
// they hold the same bytes.
func (rt *Router) migrateKey(key string, current, want []string) {
	var wire []byte
	for _, name := range want {
		t := rt.shard(name)
		if slices.Contains(current, name) || !rt.routable(t) {
			continue
		}
		for _, h := range current { // on failure, try the next holder
			if s := rt.shard(h); wire == nil && rt.routable(s) {
				wire, _ = rt.exportFrom(s, key)
			}
		}
		if wire == nil || rt.importTo(t, key, wire) != nil {
			rt.repFail.Add(1)
			continue
		}
		rt.repOK.Add(1)
	}
}

// Join adds a shard to the cluster: it is probed, inserted into the
// shard set, handed the keys the rebalanced ring assigns it, and only
// then placed on the live ring.
func (rt *Router) Join(si ShardInfo) error {
	if si.Name == "" || si.URL == "" {
		return fmt.Errorf("cluster: join needs a name and url, got %+v", si)
	}
	rt.adminMu.Lock()
	defer rt.adminMu.Unlock()
	rt.mu.Lock()
	if _, dup := rt.shards[si.Name]; dup {
		rt.mu.Unlock()
		return fmt.Errorf("cluster: shard %q already a member", si.Name)
	}
	rt.shards[si.Name] = &shardState{name: si.Name, url: si.URL, healthy: true}
	rt.mu.Unlock()

	if status, _, err := rt.boundedGet(si.URL + "/readyz"); err != nil || status != http.StatusOK {
		rt.mu.Lock()
		delete(rt.shards, si.Name)
		rt.mu.Unlock()
		return fmt.Errorf("cluster: shard %q at %s is not ready", si.Name, si.URL)
	}

	rt.rebalanceLocked(func(next *Ring) { next.Add(si.Name) })
	return nil
}

// Drain retires a shard with zero failed requests: stop placing new
// factorizations on it, migrate its kept state to the owners under the
// shrunken ring, swap the ring, tell the shard itself to drain, and
// only then stop routing solves to it.
func (rt *Router) Drain(name string) error {
	rt.adminMu.Lock()
	defer rt.adminMu.Unlock()
	s := rt.shard(name)
	if s == nil {
		return fmt.Errorf("cluster: unknown shard %q", name)
	}
	rt.mu.Lock()
	if s.retired {
		rt.mu.Unlock()
		return fmt.Errorf("cluster: shard %q already drained", name)
	}
	s.draining = true
	rt.mu.Unlock()
	rt.rebalanceLocked(func(next *Ring) { next.Remove(name) })

	// Shard-side drain: it finishes inflight work and refuses new jobs.
	// A solve racing this gets the shard's 503 and fails over to a
	// freshly migrated replica, so clients never see the retirement.
	resp, err := rt.post(context.Background(), s, "/v1/admin/drain", mediaJSON, []byte("{}"))
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	rt.mu.Lock()
	s.retired = true
	rt.mu.Unlock()
	if err != nil {
		return fmt.Errorf("cluster: shard %q state migrated but drain call failed: %w", name, err)
	}
	return nil
}

// rebalanceLocked (adminMu held) applies edit to a copy of the ring,
// copies every key the routable shards list to its routable owners
// under that next ring, swaps it in, and copies once more: the first
// pass makes the keys resident before any request routes on next, the
// second catches keys factored under the old ring meanwhile.
func (rt *Router) rebalanceLocked(edit func(next *Ring)) {
	rt.mu.RLock()
	next := rt.ring.Clone()
	rt.mu.RUnlock()
	edit(next)
	copyAll := func() {
		for key, current := range rt.resident() {
			want, _ := rt.owners(key, next, rt.routable)
			rt.migrateKey(key, current, want)
		}
	}
	copyAll()
	rt.mu.Lock()
	rt.ring = next
	rt.mu.Unlock()
	copyAll()
}
