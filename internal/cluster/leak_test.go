package cluster_test

import (
	"net/http"
	"runtime"
	"testing"
	"time"

	"repro/internal/harness"
)

// TestClusterNoGoroutineLeak drives every path of the tier that starts
// goroutines — background probing, factor and solve through the router,
// join, drain and kill — then closes the cluster and requires the
// goroutine count to fall back to where it started: each goroutine the
// router, the shards and their engines start is joined by its owner's
// Close.
func TestClusterNoGoroutineLeak(t *testing.T) {
	transport := http.DefaultTransport.(*http.Transport)
	transport.CloseIdleConnections()
	before := settledGoroutines()

	c, err := harness.Start(harness.Options{Shards: 3, Replicas: 2, ProbeInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 16
	id := factorVia(t, c.URL(), n, 1)
	if code, out := solveVia(t, c.URL(), id, n); code != http.StatusOK {
		t.Fatalf("solve: %d %v", code, out)
	}
	sh, err := c.Spawn()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Router.Drain(c.Router.Holders(id)[0]); err != nil {
		t.Fatal(err)
	}
	c.Kill(sh.Name)
	c.Close()
	transport.CloseIdleConnections()

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines after Close, %d before:\n%s", runtime.NumGoroutine(), before, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// settledGoroutines returns the goroutine count once it has held still
// for 50 ms (giving up after 2 s), so that goroutines of earlier tests —
// client connections the transport is still tearing down — cannot exit
// during the test and mask a leak.
func settledGoroutines() int {
	n, still := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(2 * time.Second); still < 5 && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}
