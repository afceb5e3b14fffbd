package cluster

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// ShardInfo names one engine shard and where to reach it.
type ShardInfo struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// RouterOptions configures a Router.
type RouterOptions struct {
	// Shards is the initial membership; at least one is required.
	Shards []ShardInfo
	// Replicas is the owner-set size R: the factorization lives on the
	// primary owner plus R-1 replicas. Default 2, clamped to >= 1.
	Replicas int
	// ProbeInterval drives the background health probe; 0 disables it —
	// probes then run only through ProbeNow (harness/tests) and
	// transport errors on the data path.
	ProbeInterval time.Duration
	// FailAfter is how many consecutive probe or transport failures
	// evict a shard from the ring. Default 3, clamped to >= 1.
	FailAfter int
	// MaxBody bounds client request bodies. Default 256 MiB.
	MaxBody int64
}

// shardState is the router's view of one shard. The counters are
// atomic so the data path never takes a lock just to count; the flags
// are guarded by Router.mu.
type shardState struct {
	name string
	url  string

	requests    atomic.Int64 // proxied requests (data + admin)
	errs        atomic.Int64 // transport-level failures
	consecFails atomic.Int64 // current failure streak; FailAfter evicts

	healthy  bool
	draining bool // no new factor placements; still serves solves
	retired  bool // drained out; never routed again
}

// Router is the cluster front door: it consistent-hashes factorization
// keys onto shards, factors on the key's owner, fans the serialized
// factorization out to replicas, and routes solves to any holder with
// failover. It also runs the shard lifecycle: Join, Drain, and
// probe-driven eviction. Serve it with its Handler.
type Router struct {
	opt    RouterOptions
	client *http.Client

	// adminMu serializes migrating membership changes (join, drain) so
	// their rebalances never interleave. It is only ever taken with mu
	// not held, and probe or transport eviction never takes it: those
	// fire inside a migration, which holds adminMu.
	adminMu sync.Mutex

	// mu guards the shard map, every shard's flags, the ring, the
	// placement table and the lag EWMA. No code takes another lock while
	// holding it.
	mu     sync.RWMutex
	shards map[string]*shardState
	ring   *Ring
	// placements records which shards hold each key — written at factor
	// time and rewritten by migrations. It is what lets a solve for a
	// lost key answer "owner set down" (503) instead of "never heard of
	// it" (404), and what drains and joins enumerate.
	placements map[string][]string
	repLagMs   float64 // EWMA of factor-reply-to-replicas-imported latency

	seq       atomic.Int64
	factors   atomic.Int64
	solves    atomic.Int64
	failovers atomic.Int64
	repOK     atomic.Int64
	repFail   atomic.Int64
	rotor     atomic.Int64

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewRouter builds a router over the given shards and, when
// ProbeInterval > 0, starts its health-probe loop.
func NewRouter(opt RouterOptions) (*Router, error) {
	if len(opt.Shards) == 0 {
		return nil, errors.New("cluster: router needs at least one shard")
	}
	if opt.Replicas < 1 {
		opt.Replicas = 2
	}
	if opt.FailAfter < 1 {
		opt.FailAfter = 3
	}
	if opt.MaxBody <= 0 {
		opt.MaxBody = 256 << 20
	}
	rt := &Router{
		opt:        opt,
		client:     &http.Client{},
		shards:     map[string]*shardState{},
		ring:       NewRing(),
		placements: map[string][]string{},
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	for _, si := range opt.Shards {
		if si.Name == "" || si.URL == "" {
			return nil, fmt.Errorf("cluster: shard needs a name and url, got %+v", si)
		}
		if _, dup := rt.shards[si.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate shard name %q", si.Name)
		}
		rt.shards[si.Name] = &shardState{name: si.Name, url: si.URL, healthy: true}
		rt.ring.Add(si.Name)
	}
	if opt.ProbeInterval > 0 {
		go rt.probeLoop()
	} else {
		close(rt.done)
	}
	return rt, nil
}

// Close stops the probe loop. It does not touch the shards.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	<-rt.done
}

func (rt *Router) handleJoin(w http.ResponseWriter, _ *http.Request, si *ShardInfo) {
	if err := rt.Join(*si); err != nil {
		HTTPError(w, http.StatusConflict, "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"joined": si.Name})
}

type drainRequest struct {
	Name string `json:"name"`
}

func (rt *Router) handleDrain(w http.ResponseWriter, _ *http.Request, req *drainRequest) {
	if req.Name == "" {
		HTTPError(w, http.StatusBadRequest, "missing shard name")
		return
	}
	if err := rt.Drain(req.Name); err != nil {
		HTTPError(w, http.StatusConflict, "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"drained": req.Name})
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

func (rt *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	for _, s := range rt.shardList() {
		if rt.placeable(s) {
			w.WriteHeader(http.StatusOK)
			io.WriteString(w, "ready\n")
			return
		}
	}
	HTTPError(w, http.StatusServiceUnavailable, "no placeable shard")
}

// Handler returns the router's HTTP surface: every route behind one of
// the request guards (guard.go) the shards' table is built from too.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	// A kind is its key prefix plus the shard path its requests go to.
	for _, k := range []struct{ prefix, path string }{{"f", "/v1/factor"}, {"c", "/v1/cholesky"}} {
		mux.HandleFunc(k.path, PostBytes(mediaJSON, rt.opt.MaxBody, func(w http.ResponseWriter, r *http.Request, body []byte) {
			rt.handleFactor(r.Context(), w, body, k.prefix, k.path)
		}))
	}
	for _, path := range []string{"/v1/solve", "/v1/cholesky/solve"} {
		mux.HandleFunc(path, PostBytes(mediaJSON, rt.opt.MaxBody, func(w http.ResponseWriter, r *http.Request, body []byte) {
			rt.handleSolve(r.Context(), w, body, path)
		}))
	}
	mux.HandleFunc("/v1/stats", Get(rt.handleStats))
	mux.HandleFunc("/v1/admin/join", PostJSON(rt.opt.MaxBody, rt.handleJoin))
	mux.HandleFunc("/v1/admin/drain", PostJSON(rt.opt.MaxBody, rt.handleDrain))
	mux.HandleFunc("/healthz", Get(rt.handleHealthz))
	mux.HandleFunc("/readyz", Get(rt.handleReadyz))
	return mux
}
