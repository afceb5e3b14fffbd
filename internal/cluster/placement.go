package cluster

import "sort"

// Placement: the shards a key hashes to (the ring), the shards known to
// hold it (the placement table), and which of them may be sent work.

func (rt *Router) ownerSet(key string) []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.ring.Owners(key, rt.opt.Replicas)
}

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

// holders returns a copy of key's placement record and whether the
// router ever placed the key. The two are distinct facts: a record that
// a drain emptied is still a placed key — its solves are "owner set
// down", not "never heard of it".
func (rt *Router) holders(key string) (hs []string, placed bool) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	hs, placed = rt.placements[key]
	return append([]string(nil), hs...), placed
}

// Holders reports which shards hold a key's factorization according to
// the placement table, in ring order: the primary owner first, then
// replicas. Empty means no shard is known to hold the key.
func (rt *Router) Holders(key string) []string {
	hs, _ := rt.holders(key)
	return hs
}

func (rt *Router) setHolders(key string, hs []string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.placements[key] = hs
}
