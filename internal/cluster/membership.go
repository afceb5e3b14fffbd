package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"time"
)

// Membership: shard health (transport errors, probes, eviction, rejoin),
// Join and drain, and the key copy they share with factor replication.

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

// noteAlive resets the failure streak, lock-free unless the streak had
// evicted the shard, which is then routable again.
func (rt *Router) noteAlive(s *shardState) {
	if s.consecFails.Swap(0) >= int64(rt.opt.FailAfter) {
		rt.settle(s)
	}
}

// settle makes s's health flag agree with its failure streak, re-read
// under mu so racing results settle to the last streak written. It
// takes only mu: transport errors surface inside migrations too.
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
			rt.probeNow()
		}
	}
}

// probeNow runs one synchronous health-probe pass over every
// non-retired shard.
func (rt *Router) probeNow() {
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

// probeTimeout bounds every request the router makes on its own
// behalf (probes, a joining shard's readiness, /v1/stats fetches), so a
// shard that never answers costs this long, not forever.
const probeTimeout = 2 * time.Second

// boundedGet GETs target under probeTimeout and returns the status with
// up to 1 MiB of the body, touching no shard state.
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

// copyKey streams key's frame from holder s into target t, the export's
// body as the import's. A cut export counts against s (holderFailed, so
// the caller tries another holder) and a failed import against t.
func (rt *Router) copyKey(key string, s, t *shardState) (ok, holderFailed bool) {
	q := "?id=" + url.QueryEscape(key)
	resp, err := rt.get(s, "/v1/admin/export"+q)
	if err != nil {
		return false, true
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, true
	}
	ctx, cut := context.WithCancel(context.Background())
	defer cut()
	ir, err := rt.post(ctx, t, "/v1/admin/import"+q, mediaBytes, &sourceBody{resp.Body, cut}, resp.ContentLength)
	if err == nil {
		defer ir.Body.Close()
		copyBuf(io.Discard, ir.Body)
	}
	if ctx.Err() != nil {
		rt.noteTransportError(s)
		return false, true
	}
	return err == nil && (ir.StatusCode == http.StatusOK || ir.StatusCode == http.StatusNoContent), false
}

// sourceBody is an export body on its way into an import request; a
// failed read of it cuts the import's context.
type sourceBody struct {
	r   io.Reader
	cut context.CancelFunc
}

func (b *sourceBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err != nil && err != io.EOF {
		b.cut()
	}
	return n, err
}

// migrateKey makes every routable shard in want hold key, streaming it
// from the first routable current holder whose export reads whole (they
// hold the same bytes). A failed import is not retried.
func (rt *Router) migrateKey(key string, current, want []string) {
	for _, name := range want {
		t := rt.shard(name)
		if slices.Contains(current, name) || !rt.routable(t) {
			continue
		}
		ok := false
		for _, h := range current {
			if s := rt.shard(h); rt.routable(s) {
				var holderFailed bool
				if ok, holderFailed = rt.copyKey(key, s, t); !holderFailed {
					break
				}
			}
		}
		if !ok {
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

	rt.rebalanceLocked(func(next *hashRing) { next.add(si.Name) })
	return nil
}

// drain retires a shard with zero failed requests: stop placing on it,
// migrate its keys under the shrunken ring, swap the ring, tell the
// shard to drain, and only then stop routing solves to it.
func (rt *Router) drain(name string) error {
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
	rt.rebalanceLocked(func(next *hashRing) { next.remove(name) })

	// Shard-side drain: it finishes inflight work and refuses new jobs.
	// A solve racing this gets the shard's 503 and fails over to a
	// freshly migrated replica, so clients never see the retirement.
	resp, err := rt.post(context.Background(), s, "/v1/admin/drain", mediaJSON, strings.NewReader("{}"), 2)
	if err == nil {
		copyBuf(io.Discard, resp.Body)
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

// rebalanceLocked (adminMu held) copies every listed key to its
// routable owners under an edited copy of the ring, swaps that in, and
// copies again to catch keys factored under the old ring meanwhile.
func (rt *Router) rebalanceLocked(edit func(next *hashRing)) {
	rt.mu.RLock()
	next := rt.ring.clone()
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
