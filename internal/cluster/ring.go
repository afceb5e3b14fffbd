// Package cluster is the sharded serving tier: a consistent-hash ring
// that maps factorization keys onto engine shards, a wire format that
// ships completed factorizations between shards (pivots plus packed
// L/U blocks through the layout package's block iteration), and the
// router front door that places factor jobs on a key's owner, fans the
// serialized factorization out to replicas for solve read-scaling, and
// handles shard lifecycle — join (ring rebalance plus migration of
// reassigned keys), drain (stop placing, migrate kept state, then
// retire) and failure (probe-driven eviction with solve failover to
// surviving replicas).
//
// The split mirrors the paper's static-partition-plus-dynamic-remainder
// idea one level up: the ring is the static partition of the key space
// (cheap, deterministic, no coordination per request), while failover,
// replica rotation and re-placement absorb the dynamic remainder — shards that die, drain or join.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// defaultVNodes is the virtual-node count per shard: enough that a
// three-shard ring splits the key space within a few percent of evenly
// while keeping rebuilds trivially cheap.
const defaultVNodes = 64

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring with virtual nodes. Membership is
// deterministic in (vnodes, node names): two rings built with the same
// inputs agree on every key's owner set, which is what lets tests — and
// operators — recompute placements offline. Not safe for concurrent
// use; the Router guards it.
type Ring struct {
	vnodes int
	gen    uint64
	nodes  map[string]bool
	points []ringPoint // sorted by hash
}

// NewRing returns an empty ring; vnodes <= 0 selects the default.
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = defaultVNodes
	}
	return &Ring{vnodes: vnodes, nodes: map[string]bool{}}
}

// Clone returns an independent copy (same generation).
func (r *Ring) Clone() *Ring {
	c := &Ring{vnodes: r.vnodes, gen: r.gen, nodes: make(map[string]bool, len(r.nodes))}
	for n := range r.nodes {
		c.nodes[n] = true
	}
	c.points = append([]ringPoint(nil), r.points...)
	return c
}

// hashKey positions a key (or virtual node label) on the circle.
// FNV-1a alone avalanches poorly on short strings — "s1#0".."s1#63"
// come out nearly sequential, clustering a shard's virtual nodes into
// one arc — so the output goes through a splitmix64-style finalizer.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add inserts a node's virtual points, reporting whether membership
// changed. Every membership change bumps the generation.
func (r *Ring) Add(node string) bool {
	if r.nodes[node] {
		return false
	}
	r.nodes[node] = true
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, ringPoint{hash: hashKey(fmt.Sprintf("%s#%d", node, v)), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	r.gen++
	return true
}

// Remove deletes a node's virtual points, reporting whether it was a
// member.
func (r *Ring) Remove(node string) bool {
	if !r.nodes[node] {
		return false
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
	r.gen++
	return true
}

// Gen returns the membership generation: it increments on every Add or
// Remove that changed the ring, so routers and stats can tell apart
// placements computed under different topologies.
func (r *Ring) Gen() uint64 { return r.gen }

// Len returns the member count.
func (r *Ring) Len() int { return len(r.nodes) }

// Nodes returns the members in sorted order.
func (r *Ring) Nodes() []string {
	ns := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// Owners returns the key's owner set: up to n distinct nodes starting
// at the key's successor point and walking the circle. The first entry
// is the primary owner (where factor jobs land); the rest are the
// replicas the factorization fans out to.
func (r *Ring) Owners(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	owners := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(owners) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			owners = append(owners, p.node)
		}
	}
	return owners
}
