package kernel

import (
	"sync"
	"testing"
)

// TestFreeListBoundedByCPUs: sets returned beyond wsCap — a pool wider
// than the machine — go to the garbage collector, exactly wsCap stay on
// the free list, and the next checkout reuses one of them. The bound is
// pinned at 2 on an empty list, so the test allocates four sets on any
// machine.
func TestFreeListBoundedByCPUs(t *testing.T) {
	wsMu.Lock()
	oldCap, oldFree := wsCap, wsFree
	wsCap, wsFree = 2, nil
	wsMu.Unlock()
	t.Cleanup(func() {
		wsMu.Lock()
		wsCap, wsFree = oldCap, oldFree
		wsMu.Unlock()
	})
	out := make([]*workspace, wsCap+2)
	for i := range out {
		out[i] = getWorkspace()
	}
	for _, w := range out {
		putWorkspace(w)
	}
	wsMu.Lock()
	free, top := len(wsFree), wsFree[len(wsFree)-1]
	wsMu.Unlock()
	if free != wsCap {
		t.Fatalf("free list holds %d sets after %d returns, want wsCap = %d", free, len(out), wsCap)
	}
	if w := getWorkspace(); w != top {
		t.Error("checkout allocated a new set with the free list full")
	} else {
		putWorkspace(w)
	}
}

// TestWorkspaceConcurrentCheckouts: concurrent checkouts never hand one
// set to two callers and never leave the free list above its bound (run
// under -race).
func TestWorkspaceConcurrentCheckouts(t *testing.T) {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		held = map[*workspace]bool{}
	)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				w := getWorkspace()
				mu.Lock()
				if held[w] {
					t.Error("one workspace checked out twice")
				}
				held[w] = true
				mu.Unlock()
				w.ap[0]++ // a shared set would race here
				mu.Lock()
				delete(held, w)
				mu.Unlock()
				putWorkspace(w)
			}
		}()
	}
	wg.Wait()
	wsMu.Lock()
	free := len(wsFree)
	wsMu.Unlock()
	if free > wsCap {
		t.Fatalf("free list holds %d sets, bound %d", free, wsCap)
	}
}
