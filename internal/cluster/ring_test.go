package cluster

import (
	"fmt"
	"testing"
)

func keys(n int) []string {
	ks := make([]string, n)
	for i := range ks {
		ks[i] = fmt.Sprintf("f-%d", i+1)
	}
	return ks
}

// TestRingDeterminism: two rings built from the same membership agree
// on every owner set — the property offline placement math relies on.
func TestRingDeterminism(t *testing.T) {
	build := func() *Ring {
		r := NewRing()
		r.Add("s2")
		r.Add("s0")
		r.Add("s1")
		return r
	}
	a, b := build(), build()
	for _, k := range keys(500) {
		oa, ob := a.Owners(k, 2), b.Owners(k, 2)
		if fmt.Sprint(oa) != fmt.Sprint(ob) {
			t.Fatalf("key %s: %v vs %v", k, oa, ob)
		}
	}
}

// TestRingOwnerSets: owner sets are distinct nodes, capped at the
// membership size, and the primary is stable across calls.
func TestRingOwnerSets(t *testing.T) {
	r := NewRing()
	for i := 0; i < 3; i++ {
		r.Add(fmt.Sprintf("s%d", i))
	}
	if got := r.Owners("k", 5); len(got) != 3 {
		t.Fatalf("owner set %v, want all 3 members", got)
	}
	if len(r.points) != 3*vnodes {
		t.Fatalf("%d ring points, want %d per member", len(r.points), vnodes)
	}
	for _, k := range keys(200) {
		o := r.Owners(k, 2)
		if len(o) != 2 || o[0] == o[1] {
			t.Fatalf("key %s: owner set %v", k, o)
		}
	}
	if r.Owners("k", 0) != nil {
		t.Fatal("n=0 should own nothing")
	}
	empty := NewRing()
	if empty.Owners("k", 2) != nil {
		t.Fatal("empty ring should own nothing")
	}
}

// TestRingBalance: with virtual nodes, no shard of three owns a wildly
// disproportionate share of primaries.
func TestRingBalance(t *testing.T) {
	r := NewRing()
	for i := 0; i < 3; i++ {
		r.Add(fmt.Sprintf("s%d", i))
	}
	count := map[string]int{}
	ks := keys(3000)
	for _, k := range ks {
		count[r.Owners(k, 1)[0]]++
	}
	for n, c := range count {
		frac := float64(c) / float64(len(ks))
		if frac < 0.15 || frac > 0.55 {
			t.Fatalf("shard %s owns %.0f%% of primaries: %v", n, frac*100, count)
		}
	}
}

// TestRingMinimalDisruption: adding a node only moves keys onto the new
// node; removing one only moves keys that it owned.
func TestRingMinimalDisruption(t *testing.T) {
	r := NewRing()
	r.Add("s0")
	r.Add("s1")
	ks := keys(1000)
	before := map[string]string{}
	for _, k := range ks {
		before[k] = r.Owners(k, 1)[0]
	}

	gen := r.Gen()
	if !r.Add("s2") || r.Gen() != gen+1 {
		t.Fatal("Add did not bump the generation")
	}
	moved := 0
	for _, k := range ks {
		now := r.Owners(k, 1)[0]
		if now != before[k] {
			if now != "s2" {
				t.Fatalf("key %s moved %s -> %s, not to the joined shard", k, before[k], now)
			}
			moved++
		}
	}
	if moved == 0 || moved == len(ks) {
		t.Fatalf("join moved %d/%d keys", moved, len(ks))
	}

	after := map[string]string{}
	for _, k := range ks {
		after[k] = r.Owners(k, 1)[0]
	}
	if !r.Remove("s2") {
		t.Fatal("Remove failed")
	}
	if r.Remove("s2") {
		t.Fatal("Remove of a non-member succeeded")
	}
	for _, k := range ks {
		now := r.Owners(k, 1)[0]
		if after[k] != "s2" && now != after[k] {
			t.Fatalf("key %s not owned by the removed shard still moved %s -> %s", k, after[k], now)
		}
		if now != before[k] {
			t.Fatalf("remove did not restore the pre-join owner for %s", k)
		}
	}
}

// TestRingCloneIndependent: mutating a clone leaves the original ring
// untouched.
func TestRingCloneIndependent(t *testing.T) {
	r := NewRing()
	r.Add("s0")
	r.Add("s1")
	c := r.Clone()
	c.Remove("s0")
	if r.Len() != 2 || c.Len() != 1 {
		t.Fatalf("lens %d/%d, want 2/1", r.Len(), c.Len())
	}
	if got := fmt.Sprint(r.Nodes()); got != "[s0 s1]" {
		t.Fatalf("original nodes %s", got)
	}
	if r.Owners("k", 1)[0] == "" {
		t.Fatal("original ring broken after clone mutation")
	}
}
