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
// failures accumulate, settle evicts the shard from the ring.
func (rt *Router) noteTransportError(s *shardState) {
	s.errs.Add(1)
	if s.consecFails.Add(1) >= int64(rt.opt.FailAfter) {
		rt.settle(s)
	}
}

// noteAlive resets the failure streak. Only a streak that had reached
// FailAfter can have evicted the shard, so a healthy shard's success
// ends here, lock-free; an evicted one rejoins the ring (its kept state
// may be stale or gone — solve failover covers the 404s until new
// placements repopulate it).
func (rt *Router) noteAlive(s *shardState) {
	if s.consecFails.Swap(0) >= int64(rt.opt.FailAfter) {
		rt.settle(s)
	}
}

// settle makes s's health flag and ring membership agree with its
// failure streak, re-read under mu so that racing successes and failures
// settle to the last streak either wrote. It takes only mu, never
// adminMu: transport errors surface inside Join/Drain migrations too,
// which already hold adminMu. A retired shard never rejoins.
func (rt *Router) settle(s *shardState) {
	rt.mu.Lock()
	up := s.consecFails.Load() < int64(rt.opt.FailAfter)
	switch {
	case !up && s.healthy:
		s.healthy = false
		rt.ring.Remove(s.name)
	case up && !s.healthy && !s.retired:
		s.healthy = true
		rt.ring.Add(s.name)
	}
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

// migrateKey makes every shard in want hold key, exporting once from
// the first routable current holder that still has it — at factor time
// the shard that just factored, in a rebalance any replica: they hold
// the same bytes. It returns the shards confirmed to hold the key
// afterwards, in want's (ring) order.
func (rt *Router) migrateKey(key string, current, want []string) []string {
	var wire []byte
	fetch := func() bool {
		if wire != nil {
			return true
		}
		for _, name := range current {
			s := rt.shard(name)
			if s == nil || !rt.routable(s) {
				continue
			}
			b, err := rt.exportFrom(s, key)
			if err == nil {
				wire = b
				return true
			}
		}
		return false
	}
	out := make([]string, 0, len(want))
	for _, name := range want {
		if slices.Contains(current, name) {
			out = append(out, name)
			continue
		}
		t := rt.shard(name)
		if t == nil || !rt.routable(t) || !fetch() {
			rt.repFail.Add(1)
			continue
		}
		if err := rt.importTo(t, key, wire); err != nil {
			rt.repFail.Add(1)
			continue
		}
		rt.repOK.Add(1)
		out = append(out, name)
	}
	if len(out) == 0 {
		// Migration failed outright; keep the old holders rather than
		// forgetting where the key lives.
		return current
	}
	return out
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

	// Migrate against the prospective ring, then swap it in: keys the
	// new shard will own are resident before any request can route on
	// the new topology.
	rt.mu.RLock()
	next := rt.ring.Clone()
	rt.mu.RUnlock()
	next.Add(si.Name)
	rt.rebalanceLocked(next)

	rt.installRing(next)
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
	next := rt.ring.Clone()
	rt.mu.Unlock()
	next.Remove(name)
	rt.rebalanceLocked(next)

	rt.installRing(next)

	// Shard-side drain: it finishes inflight work and refuses new jobs.
	// A solve racing this gets the shard's 503 and fails over to a
	// freshly migrated replica, so clients never see the retirement.
	resp, err := rt.post(context.Background(), s, "/v1/admin/drain", mediaJSON, []byte("{}"))
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// Retire it and drop it from every placement record.
	rt.mu.Lock()
	s.retired = true
	for key, hs := range rt.placements {
		rt.placements[key] = slices.DeleteFunc(hs, func(h string) bool { return h == name })
	}
	rt.mu.Unlock()
	if err != nil {
		return fmt.Errorf("cluster: shard %q state migrated but drain call failed: %w", name, err)
	}
	return nil
}

// installRing publishes a prospective ring built by a migration
// (adminMu held). The clone the migration worked against predates the
// swap, so any membership event that raced it — a probe or transport
// eviction, a rejoin — only landed on the ring being replaced: swapping
// the stale clone in verbatim would resurrect an evicted shard's ring
// points (or drop a rejoined shard's) until the next event fixed it up.
// So the flags are re-read and applied to the prospective ring in the
// same mu section that swaps it in. settle writes a flag and edits the
// ring in one mu section too, so every event is either visible to this
// re-read or lands on the installed ring — never neither.
func (rt *Router) installRing(next *Ring) {
	rt.mu.Lock()
	for _, s := range rt.shards {
		switch {
		case !s.healthy || s.retired:
			next.Remove(s.name)
		case !s.draining:
			next.Add(s.name)
		}
	}
	rt.ring = next
	rt.mu.Unlock()
}

// rebalanceLocked (adminMu held) rewrites every placement to the owner
// set under the prospective ring, migrating factorizations to owners
// that lack them.
func (rt *Router) rebalanceLocked(next *Ring) {
	rt.mu.RLock()
	snap := make(map[string][]string, len(rt.placements))
	for k, hs := range rt.placements {
		snap[k] = append([]string(nil), hs...)
	}
	rt.mu.RUnlock()
	for key, current := range snap {
		want := next.Owners(key, rt.opt.Replicas)
		after := rt.migrateKey(key, current, want)
		rt.setHolders(key, after)
	}
}
