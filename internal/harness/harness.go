// Package harness boots a whole hsdcluster in one process: N engine
// shards behind real HTTP listeners (httptest) and a router in front,
// with knobs to kill a shard mid-flight, spawn-and-join a new one, or
// drain one out. Cluster integration tests and the router benchmarks
// drive the exact binaries' code paths — internal/serve handlers and
// internal/cluster routing — without forking processes.
package harness

import (
	"fmt"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/serve"
)

// Options sizes the in-process cluster. Zero values pick CI-safe
// defaults (small pools, manual probing).
type Options struct {
	// Shards is the initial shard count (default 3).
	Shards int
	// Replicas is the owner-set size (default 2).
	Replicas int
	// Workers is each shard engine's pool size (default 1 — safe on a
	// single-CPU CI runner).
	Workers int
	// Keep bounds each shard's resident factorizations (default 32).
	Keep int
	// FailAfter is the router's eviction threshold (default 2 — two
	// ProbeNow calls retire a killed shard).
	FailAfter int
	// ProbeInterval enables background probing; 0 (default) leaves
	// probing to explicit Router.ProbeNow calls, keeping tests
	// deterministic.
	ProbeInterval time.Duration
}

// Shard is one in-process engine shard.
type Shard struct {
	Name   string
	Server *serve.Server
	Engine *engine.Engine
	HTTP   *httptest.Server
}

// URL returns the shard's listener address.
func (s *Shard) URL() string { return s.HTTP.URL }

// Cluster is a running in-process cluster: a router fronting shards.
type Cluster struct {
	Router     *cluster.Router
	RouterHTTP *httptest.Server

	opt Options

	mu     sync.Mutex
	next   int
	shards map[string]*Shard
}

// newShard boots one serve.Server on a live listener.
func (c *Cluster) newShard() (*Shard, error) {
	eng, err := engine.New(engine.Options{Workers: c.opt.Workers, MaxInflight: 16})
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.next++
	name := fmt.Sprintf("s%d", c.next)
	c.mu.Unlock()
	srv := serve.New(eng, serve.Options{Keep: c.opt.Keep})
	sh := &Shard{Name: name, Server: srv, Engine: eng, HTTP: httptest.NewServer(srv.Handler())}
	c.mu.Lock()
	c.shards[name] = sh
	c.mu.Unlock()
	return sh, nil
}

// Start boots opt.Shards shards and a router over them.
func Start(opt Options) (*Cluster, error) {
	if opt.Shards <= 0 {
		opt.Shards = 3
	}
	if opt.Replicas <= 0 {
		opt.Replicas = 2
	}
	if opt.Workers <= 0 {
		opt.Workers = 1
	}
	if opt.Keep <= 0 {
		opt.Keep = 32
	}
	if opt.FailAfter <= 0 {
		opt.FailAfter = 2
	}
	c := &Cluster{opt: opt, shards: map[string]*Shard{}}
	infos := make([]cluster.ShardInfo, 0, opt.Shards)
	for i := 0; i < opt.Shards; i++ {
		sh, err := c.newShard()
		if err != nil {
			c.Close()
			return nil, err
		}
		infos = append(infos, cluster.ShardInfo{Name: sh.Name, URL: sh.URL()})
	}
	rt, err := cluster.NewRouter(cluster.RouterOptions{
		Shards:        infos,
		Replicas:      opt.Replicas,
		FailAfter:     opt.FailAfter,
		ProbeInterval: opt.ProbeInterval,
	})
	if err != nil {
		c.Close()
		return nil, err
	}
	c.Router = rt
	c.RouterHTTP = httptest.NewServer(rt.Handler())
	return c, nil
}

// URL returns the router's client-facing address.
func (c *Cluster) URL() string { return c.RouterHTTP.URL }

// Shard returns a running shard by name (nil if killed or unknown).
func (c *Cluster) Shard(name string) *Shard {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shards[name]
}

// Names lists the running shards in sorted order.
func (c *Cluster) Names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.shards))
	for n := range c.shards {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Kill tears a shard down abruptly — listener and engine both die, the
// way a crashed process looks to the router. The router notices via
// transport errors or probes.
func (c *Cluster) Kill(name string) {
	c.mu.Lock()
	sh := c.shards[name]
	delete(c.shards, name)
	c.mu.Unlock()
	if sh == nil {
		return
	}
	sh.HTTP.CloseClientConnections()
	sh.HTTP.Close()
	sh.Engine.Close()
}

// Spawn boots a fresh shard and joins it through the router: the ring
// rebalances and keys it now owns are migrated onto it before it takes
// traffic.
func (c *Cluster) Spawn() (*Shard, error) {
	sh, err := c.newShard()
	if err != nil {
		return nil, err
	}
	if err := c.Router.Join(cluster.ShardInfo{Name: sh.Name, URL: sh.URL()}); err != nil {
		c.Kill(sh.Name)
		return nil, err
	}
	return sh, nil
}

// Close stops the router and every remaining shard.
func (c *Cluster) Close() {
	if c.RouterHTTP != nil {
		c.RouterHTTP.Close()
	}
	if c.Router != nil {
		c.Router.Close()
	}
	for _, name := range c.Names() {
		c.Kill(name)
	}
}
