package cluster

import (
	"slices"
	"sync"
	"testing"
)

// TestClusterRingSwapRacingEviction hammers the ring's two writers
// against each other: one goroutine installs a prospective ring the way
// a join or drain migration does, the other evicts a shard the way a
// failed probe does. Once both have returned, the installed ring must
// hold the shard exactly when its flag says healthy. An installRing
// that re-reads the flags in one mu section and swaps the ring in
// another loses an eviction landing between the two, and fails here.
// The router has no probe loop and makes no requests.
func TestClusterRingSwapRacingEviction(t *testing.T) {
	rt, err := NewRouter(RouterOptions{
		Shards:    []ShardInfo{{Name: "a", URL: "http://a.invalid"}, {Name: "b", URL: "http://b.invalid"}},
		FailAfter: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	b := rt.shard("b")
	for round := 0; round < 2000; round++ {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			rt.mu.RLock()
			next := rt.ring.Clone()
			rt.mu.RUnlock()
			rt.installRing(next)
		}()
		go func() {
			defer wg.Done()
			rt.noteTransportError(b)
		}()
		wg.Wait()
		rt.mu.RLock()
		inRing, healthy := slices.Contains(rt.ring.Nodes(), "b"), b.healthy
		rt.mu.RUnlock()
		if inRing != healthy {
			t.Fatalf("round %d: shard b in ring %v but healthy %v", round, inRing, healthy)
		}
		rt.noteAlive(b)
	}
}
