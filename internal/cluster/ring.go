// Package cluster is the sharded serving tier: a consistent-hash ring
// mapping factorization keys onto engine shards (the paper's static
// partition, one level up), the wire format factorizations stream
// between shards in, and the router that places factors on a key's
// owners, fails solves over and runs join, drain and eviction (the
// dynamic remainder).
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// vnodes is the virtual-node count per shard: a three-shard ring splits
// the key space within a few percent of evenly.
const vnodes = 64

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash uint64
	node string
}

// hashRing is a consistent-hash ring with vnodes virtual nodes per
// member. Two rings with the same members agree on every key's owners,
// so placements can be recomputed offline. The Router guards it.
type hashRing struct {
	gen    uint64 // bumped by every add or remove that changes membership
	nodes  map[string]bool
	points []ringPoint // sorted by hash
}

// newRing returns an empty ring.
func newRing() *hashRing {
	return &hashRing{nodes: map[string]bool{}}
}

// clone returns an independent copy (same generation).
func (r *hashRing) clone() *hashRing {
	c := &hashRing{gen: r.gen, nodes: make(map[string]bool, len(r.nodes))}
	for n := range r.nodes {
		c.nodes[n] = true
	}
	c.points = append([]ringPoint(nil), r.points...)
	return c
}

// hashKey positions a key (or virtual node label) on the circle: FNV-1a,
// which alone clusters "s1#0".."s1#63" into one arc, then a splitmix64
// finalizer.
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

// add inserts a node's virtual points, reporting whether membership
// changed. Every membership change bumps the generation.
func (r *hashRing) add(node string) bool {
	if r.nodes[node] {
		return false
	}
	r.nodes[node] = true
	for v := 0; v < vnodes; v++ {
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

// remove deletes a node's virtual points, reporting whether it was a
// member.
func (r *hashRing) remove(node string) bool {
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

// members returns the members in sorted order.
func (r *hashRing) members() []string {
	ns := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// owners returns the key's owner set: up to n distinct nodes walking
// the circle from the key's successor point, the primary owner first.
func (r *hashRing) owners(key string, n int) []string {
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
