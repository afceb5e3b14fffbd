package cluster

import (
	"crypto/rand"
	"encoding/base32"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
)

// Placement: a key's owners (its first R ring members), the shards
// that hold it (their own store listings), and which shards may be sent
// work. The router keeps no record per key: it mints keys whose owners
// can take them, so a key only ever lives on its owners.

func (rt *Router) shard(name string) *shardState {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.shards[name]
}

func (rt *Router) shardList() []*shardState {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]*shardState, 0, len(rt.shards))
	for _, s := range rt.shards {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// routable: may receive solves and admin traffic.
func (rt *Router) routable(s *shardState) bool {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return s.healthy && !s.retired
}

// placeable: may receive new factor placements.
func (rt *Router) placeable(s *shardState) bool {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return s.healthy && !s.retired && !s.draining
}

// owners returns key's owners — the first R members of ring (the live
// ring when nil) from the key's hash, primary first — that pass keep,
// and whether any owner did not.
func (rt *Router) owners(key string, ring *Ring, keep func(*shardState) bool) (kept []string, short bool) {
	rt.mu.RLock()
	if ring == nil {
		ring = rt.ring
	}
	names := ring.Owners(key, rt.opt.Replicas)
	rt.mu.RUnlock()
	for _, name := range names {
		if keep(rt.shard(name)) {
			kept = append(kept, name)
		} else {
			short = true
		}
	}
	return kept, short
}

// mint draws a key — prefix plus 96 random bits, unique across router
// restarts — until all its owners are placeable, or after 32 draws per
// member settles for the first with any (a miss while one is, about
// (1-1/members)^(32·members), never happens), and returns them.
func (rt *Router) mint(prefix string) (key string, cs []string) {
	rt.mu.RLock()
	draws := 32 * rt.ring.Len()
	rt.mu.RUnlock()
	for range draws {
		var id [12]byte
		rand.Read(id[:]) // never fails: crypto/rand crashes the program instead
		k := prefix + "-" + base32.StdEncoding.WithPadding(base32.NoPadding).EncodeToString(id[:])
		ps, short := rt.owners(k, nil, rt.placeable)
		if !short {
			return k, ps
		}
		if cs == nil {
			key, cs = k, ps
		}
	}
	return key, cs
}

// listing returns the ids a shard's store holds, from its
// /v1/admin/export read under MaxBody.
func (rt *Router) listing(s *shardState) ([]string, error) {
	resp, err := rt.get(s, "/v1/admin/export")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("listing %s: status %d", s.name, resp.StatusCode)
	}
	var l struct {
		IDs []string `json:"ids"`
	}
	err = json.NewDecoder(io.LimitReader(resp.Body, rt.opt.MaxBody)).Decode(&l)
	return l.IDs, err
}

// resident maps every key a routable shard lists to the shards that
// list it. A shard whose listing fails adds no keys: nothing could be
// exported from it either.
func (rt *Router) resident() map[string][]string {
	keys := map[string][]string{}
	for _, s := range rt.shardList() {
		if !rt.routable(s) {
			continue
		}
		ids, _ := rt.listing(s)
		for _, id := range ids {
			keys[id] = append(keys[id], s.name)
		}
	}
	return keys
}

// Holders reports which shards hold a key's factorization: its routable
// owners whose listing contains it, in ring order — the primary owner
// first, then replicas. Empty means no reachable owner holds the key.
func (rt *Router) Holders(key string) []string {
	up, _ := rt.owners(key, nil, rt.routable)
	var hs []string
	for _, name := range up {
		if ids, err := rt.listing(rt.shard(name)); err == nil && slices.Contains(ids, key) {
			hs = append(hs, name)
		}
	}
	return hs
}
