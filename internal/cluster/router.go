package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"net/url"
	"sort"
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
	// VNodes is the virtual-node count per shard (<= 0 = default).
	VNodes int
	// ProbeInterval drives the background health probe; 0 disables it —
	// probes then run only through ProbeNow (harness/tests) and
	// transport errors on the data path.
	ProbeInterval time.Duration
	// FailAfter is how many consecutive probe or transport failures
	// evict a shard from the ring. Default 3, clamped to >= 1.
	FailAfter int
	// MaxBody bounds client request bodies. Default 256 MiB.
	MaxBody int64
	// Client is the HTTP client used to reach shards; nil = a default.
	Client *http.Client
}

// shardState is the router's view of one shard. Counter fields are
// atomic so the data path never takes the flag mutex just to count.
type shardState struct {
	name string
	url  string

	requests atomic.Int64 // proxied requests (data + admin)
	errs     atomic.Int64 // transport-level failures

	mu          sync.Mutex //hsd:lockrank shardState.mu 40
	healthy     bool
	draining    bool // no new factor placements; still serves solves
	retired     bool // drained out; never routed again
	consecFails int
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
	// their rebalances never interleave; probe-driven evict/rejoin
	// touch only ringMu. The lock hierarchy below is machine-checked by
	// hsdlint's lockorder analyzer from the //hsd:lockrank annotations
	// (lower rank = acquired first):
	// adminMu > shardMu > ringMu > shardState.mu > placeMu.
	adminMu sync.Mutex //hsd:lockrank adminMu 10

	shardMu sync.RWMutex //hsd:lockrank shardMu 20
	shards  map[string]*shardState

	ringMu sync.RWMutex //hsd:lockrank ringMu 30
	ring   *Ring

	// placements records which shards hold each key — written at factor
	// time and rewritten by migrations. It is what lets a solve for a
	// lost key answer "owner set down" (503) instead of "never heard of
	// it" (404), and what drains and joins enumerate.
	placeMu    sync.Mutex //hsd:lockrank placeMu 50
	placements map[string][]string

	seq       atomic.Int64
	factors   atomic.Int64
	solves    atomic.Int64
	failovers atomic.Int64
	repOK     atomic.Int64
	repFail   atomic.Int64
	rotor     atomic.Int64

	lagMu    sync.Mutex
	repLagMs float64 // EWMA of factor-reply-to-replicas-imported latency

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
		client:     opt.Client,
		shards:     map[string]*shardState{},
		ring:       NewRing(opt.VNodes),
		placements: map[string][]string{},
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	if rt.client == nil {
		rt.client = &http.Client{}
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

// ---- placement ----------------------------------------------------------

func (rt *Router) ownerSet(key string) []string {
	rt.ringMu.RLock()
	defer rt.ringMu.RUnlock()
	return rt.ring.Owners(key, rt.opt.Replicas)
}

func (rt *Router) shard(name string) *shardState {
	rt.shardMu.RLock()
	defer rt.shardMu.RUnlock()
	return rt.shards[name]
}

func (rt *Router) shardList() []*shardState {
	rt.shardMu.RLock()
	defer rt.shardMu.RUnlock()
	out := make([]*shardState, 0, len(rt.shards))
	for _, s := range rt.shards {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// routable: may receive solves and admin traffic.
func (s *shardState) routable() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.healthy && !s.retired
}

// placeable: may receive new factor placements.
func (s *shardState) placeable() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.healthy && !s.retired && !s.draining
}

func (rt *Router) holders(key string) []string {
	rt.placeMu.Lock()
	defer rt.placeMu.Unlock()
	return append([]string(nil), rt.placements[key]...)
}

// Holders reports which shards hold a key's factorization according to
// the placement table: the primary owner first, then replicas. Nil
// means the router never placed the key.
func (rt *Router) Holders(key string) []string { return rt.holders(key) }

func (rt *Router) setHolders(key string, hs []string) {
	rt.placeMu.Lock()
	defer rt.placeMu.Unlock()
	rt.placements[key] = hs
}

// ---- shard transport ----------------------------------------------------

// post sends body to a shard path; transport failures count against the
// shard's health.
func (rt *Router) post(s *shardState, path, ct string, body []byte) (*http.Response, error) {
	s.requests.Add(1)
	resp, err := rt.client.Post(s.url+path, ct, bytes.NewReader(body))
	if err != nil {
		rt.noteTransportError(s)
	} else {
		rt.noteAlive(s)
	}
	return resp, err
}

func (rt *Router) get(s *shardState, path string) (*http.Response, error) {
	s.requests.Add(1)
	resp, err := rt.client.Get(s.url + path)
	if err != nil {
		rt.noteTransportError(s)
	} else {
		rt.noteAlive(s)
	}
	return resp, err
}

// noteTransportError counts a failure and evicts the shard from the
// ring once FailAfter consecutive failures accumulate.
func (rt *Router) noteTransportError(s *shardState) {
	s.errs.Add(1)
	s.mu.Lock()
	s.consecFails++
	trip := s.healthy && s.consecFails >= rt.opt.FailAfter
	if trip {
		s.healthy = false
	}
	s.mu.Unlock()
	// Only ringMu here, never adminMu: transport errors surface inside
	// Join/Drain migrations too, which already hold adminMu. A ring
	// swap racing this eviction can resurrect the node's points, but
	// routing re-checks shard health on every request, so a stale ring
	// entry costs a skipped candidate, not a misroute.
	if trip {
		rt.ringMu.Lock()
		rt.ring.Remove(s.name)
		rt.ringMu.Unlock()
	}
}

// noteAlive resets the failure streak; a previously evicted shard
// rejoins the ring (its kept state may be stale or gone — solve
// failover covers the 404s until new placements repopulate it).
func (rt *Router) noteAlive(s *shardState) {
	s.mu.Lock()
	s.consecFails = 0
	rejoin := !s.healthy && !s.retired
	if rejoin {
		s.healthy = true
	}
	s.mu.Unlock()
	if rejoin {
		rt.ringMu.Lock()
		rt.ring.Add(s.name)
		rt.ringMu.Unlock()
	}
}

// probeLoop drives periodic health probes until Close.
func (rt *Router) probeLoop() {
	defer close(rt.done)
	t := time.NewTicker(rt.opt.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.ProbeNow()
		}
	}
}

// ProbeNow runs one synchronous health-probe pass over every
// non-retired shard. The in-process harness and tests call it directly
// instead of waiting out a probe interval.
func (rt *Router) ProbeNow() {
	for _, s := range rt.shardList() {
		s.mu.Lock()
		retired := s.retired
		s.mu.Unlock()
		if retired {
			continue
		}
		//hsd:allow ctxflow probes are fire-and-forget with their own deadline; no caller ctx exists
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/healthz", nil)
		if err != nil {
			cancel()
			continue
		}
		resp, err := rt.client.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		cancel()
		if err != nil || resp.StatusCode != http.StatusOK {
			rt.noteTransportError(s)
		} else {
			rt.noteAlive(s)
		}
	}
}

// ---- replication and migration ------------------------------------------

// exportFrom fetches the serialized factorization for key from a shard.
func (rt *Router) exportFrom(s *shardState, key string) ([]byte, error) {
	resp, err := rt.get(s, "/v1/admin/export?id="+url.QueryEscape(key))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("export %s from %s: status %d: %s", key, s.name, resp.StatusCode, bytes.TrimSpace(b))
	}
	return io.ReadAll(resp.Body)
}

// importTo ships serialized factorization bytes to a shard under key.
func (rt *Router) importTo(s *shardState, key string, wire []byte) error {
	resp, err := rt.post(s, "/v1/admin/import?id="+url.QueryEscape(key), "application/octet-stream", wire)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("import %s to %s: status %d", key, s.name, resp.StatusCode)
	}
	return nil
}

// replicate copies key from src to every named target that is routable,
// returning the shards now holding the key (src included).
func (rt *Router) replicate(src *shardState, key string, targets []string) []string {
	holding := []string{src.name}
	var wire []byte
	for _, name := range targets {
		if name == src.name {
			continue
		}
		t := rt.shard(name)
		if t == nil || !t.routable() {
			rt.repFail.Add(1)
			continue
		}
		if wire == nil {
			var err error
			wire, err = rt.exportFrom(src, key)
			if err != nil {
				rt.repFail.Add(1)
				return holding
			}
		}
		if err := rt.importTo(t, key, wire); err != nil {
			rt.repFail.Add(1)
			continue
		}
		rt.repOK.Add(1)
		holding = append(holding, name)
	}
	return holding
}

// migrateKey makes every shard in want hold key, exporting from the
// preferred holder (or any routable current holder). It returns the
// shards confirmed to hold the key afterwards.
func (rt *Router) migrateKey(key string, current []string, want []string, prefer string) []string {
	holds := map[string]bool{}
	for _, h := range current {
		holds[h] = true
	}
	var wire []byte
	fetch := func() bool {
		if wire != nil {
			return true
		}
		order := append([]string(nil), current...)
		if prefer != "" {
			order = append([]string{prefer}, order...)
		}
		for _, name := range order {
			s := rt.shard(name)
			if s == nil || !s.routable() {
				continue
			}
			b, err := rt.exportFrom(s, key)
			if err == nil {
				wire = b
				return true
			}
		}
		return false
	}
	out := make([]string, 0, len(want))
	for _, name := range want {
		if holds[name] {
			out = append(out, name)
			continue
		}
		t := rt.shard(name)
		if t == nil || !t.routable() || !fetch() {
			rt.repFail.Add(1)
			continue
		}
		if err := rt.importTo(t, key, wire); err != nil {
			rt.repFail.Add(1)
			continue
		}
		rt.repOK.Add(1)
		out = append(out, name)
	}
	if len(out) == 0 {
		// Migration failed outright; keep the old holders rather than
		// forgetting where the key lives.
		return current
	}
	return out
}

// Join adds a shard to the cluster: it is probed, inserted into the
// shard set, handed the keys the rebalanced ring assigns it, and only
// then placed on the live ring.
func (rt *Router) Join(si ShardInfo) error {
	if si.Name == "" || si.URL == "" {
		return fmt.Errorf("cluster: join needs a name and url, got %+v", si)
	}
	rt.adminMu.Lock()
	defer rt.adminMu.Unlock()
	rt.shardMu.Lock()
	if _, dup := rt.shards[si.Name]; dup {
		rt.shardMu.Unlock()
		return fmt.Errorf("cluster: shard %q already a member", si.Name)
	}
	s := &shardState{name: si.Name, url: si.URL, healthy: true}
	rt.shards[si.Name] = s
	rt.shardMu.Unlock()

	resp, err := rt.client.Get(si.URL + "/readyz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if err != nil || resp.StatusCode != http.StatusOK {
		rt.shardMu.Lock()
		delete(rt.shards, si.Name)
		rt.shardMu.Unlock()
		return fmt.Errorf("cluster: shard %q at %s is not ready", si.Name, si.URL)
	}

	// Migrate against the prospective ring, then swap it in: keys the
	// new shard will own are resident before any request can route on
	// the new topology.
	rt.ringMu.RLock()
	next := rt.ring.Clone()
	rt.ringMu.RUnlock()
	next.Add(si.Name)
	rt.rebalanceLocked(next, "")

	rt.installRing(next)
	return nil
}

// Drain retires a shard with zero failed requests: stop placing new
// factorizations on it, migrate its kept state to the owners under the
// shrunken ring, swap the ring, tell the shard itself to drain, and
// only then stop routing solves to it.
func (rt *Router) Drain(name string) error {
	rt.adminMu.Lock()
	defer rt.adminMu.Unlock()
	s := rt.shard(name)
	if s == nil {
		return fmt.Errorf("cluster: unknown shard %q", name)
	}
	s.mu.Lock()
	if s.retired {
		s.mu.Unlock()
		return fmt.Errorf("cluster: shard %q already drained", name)
	}
	s.draining = true
	s.mu.Unlock()

	rt.ringMu.RLock()
	next := rt.ring.Clone()
	rt.ringMu.RUnlock()
	next.Remove(name)
	rt.rebalanceLocked(next, name)

	rt.installRing(next)

	// Shard-side drain: it finishes inflight work and refuses new jobs.
	// A solve racing this gets the shard's 503 and fails over to a
	// freshly migrated replica, so clients never see the retirement.
	resp, err := rt.post(s, "/v1/admin/drain", "application/json", []byte("{}"))
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	s.mu.Lock()
	s.retired = true
	s.mu.Unlock()

	// Drop the retired shard from every placement record.
	rt.placeMu.Lock()
	for key, hs := range rt.placements {
		kept := hs[:0]
		for _, h := range hs {
			if h != name {
				kept = append(kept, h)
			}
		}
		rt.placements[key] = kept
	}
	rt.placeMu.Unlock()
	if err != nil {
		return fmt.Errorf("cluster: shard %q state migrated but drain call failed: %w", name, err)
	}
	return nil
}

// installRing publishes a prospective ring built by a migration
// (adminMu held). The clone the migration worked against predates the
// swap, so any membership event that raced it — a probe or transport
// eviction, a rejoin — only landed on the ring being replaced: swapping
// the stale clone in verbatim would resurrect an evicted shard's ring
// points (or drop a rejoined shard's) until the next event fixed it up.
// Reconcile under ringMu: re-read each shard's flags and apply them to
// the prospective ring before it goes live. Flag writers (noteAlive,
// noteTransportError) set the flag under shardState.mu strictly before
// their own ringMu section, so every event is either visible to this
// re-read or its ring edit lands on the installed ring — never neither.
func (rt *Router) installRing(next *Ring) {
	shards := rt.shardList()
	rt.ringMu.Lock()
	for _, s := range shards {
		s.mu.Lock()
		healthy, retired, draining := s.healthy, s.retired, s.draining
		s.mu.Unlock()
		switch {
		case !healthy || retired:
			next.Remove(s.name)
		case !draining:
			next.Add(s.name)
		}
	}
	rt.ring = next
	rt.ringMu.Unlock()
}

// rebalanceLocked (adminMu held) rewrites every placement to the owner
// set under the prospective ring, migrating factorizations to owners
// that lack them. prefer names the shard to export from first (the
// draining shard — it is the authoritative holder on its way out).
func (rt *Router) rebalanceLocked(next *Ring, prefer string) {
	rt.placeMu.Lock()
	snap := make(map[string][]string, len(rt.placements))
	for k, hs := range rt.placements {
		snap[k] = append([]string(nil), hs...)
	}
	rt.placeMu.Unlock()
	for key, current := range snap {
		want := next.Owners(key, rt.opt.Replicas)
		after := rt.migrateKey(key, current, want, prefer)
		rt.setHolders(key, after)
	}
}

// ---- HTTP surface -------------------------------------------------------

type routerError struct {
	Error        string `json:"error"`
	OwnerSetDown bool   `json:"ownerSetDown,omitempty"`
}

func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(routerError{Error: msg})
}

// ownerSetDown is the typed 503 a solve gets when every shard that held
// its key is gone.
func ownerSetDown(w http.ResponseWriter, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Retry-After", "1")
	w.WriteHeader(http.StatusServiceUnavailable)
	json.NewEncoder(w).Encode(routerError{Error: msg, OwnerSetDown: true})
}

// readPost guards then reads a request body: POST only, exact media
// type, size-capped. Order matters — method and Content-Type are
// checked before any body byte is read. This is the package's
// error-to-status table for request-body errors; hsdlint's errstatus
// analyzer keeps any new errors.Is/As → 4xx/5xx mapping in here.
//
//hsd:statusmap
func (rt *Router) readPost(w http.ResponseWriter, r *http.Request, want string) ([]byte, bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return nil, false
	}
	mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if err != nil || mt != want {
		httpError(w, http.StatusUnsupportedMediaType, "send Content-Type: "+want)
		return nil, false
	}
	r.Body = http.MaxBytesReader(w, r.Body, rt.opt.MaxBody)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", rt.opt.MaxBody))
		} else {
			httpError(w, http.StatusBadRequest, "could not read request body")
		}
		return nil, false
	}
	return body, true
}

// relay copies a shard response through to the client.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// handleFactor places a factor job: the router assigns the key (prefix
// plus sequence number), hashes it to an owner set, factors on the first
// placeable owner's path endpoint, then fans the serialized
// factorization out to the rest of the set.
func (rt *Router) handleFactor(w http.ResponseWriter, r *http.Request, prefix, path string) {
	body, ok := rt.readPost(w, r, "application/json")
	if !ok {
		return
	}
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	if _, has := raw["id"]; has {
		httpError(w, http.StatusBadRequest, "id is router-assigned; do not supply one")
		return
	}
	key := fmt.Sprintf("%s-%d", prefix, rt.seq.Add(1))
	raw["id"] = key
	fwd, err := json.Marshal(raw)
	if err != nil {
		httpError(w, http.StatusBadRequest, "could not re-encode request: "+err.Error())
		return
	}
	owners := rt.ownerSet(key)
	rt.factors.Add(1)

	var last *http.Response
	tried := 0
	for _, name := range owners {
		s := rt.shard(name)
		if s == nil || !s.placeable() {
			continue
		}
		if tried > 0 {
			rt.failovers.Add(1)
		}
		tried++
		start := time.Now()
		resp, err := rt.post(s, path, "application/json", fwd)
		if err != nil {
			continue
		}
		if resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
			// Owner shed or saturated: the next owner in the set is a
			// legitimate factor target — the key still hashes to it.
			if last != nil {
				last.Body.Close()
			}
			last = resp
			continue
		}
		if resp.StatusCode == http.StatusOK {
			holders := rt.replicate(s, key, owners)
			rt.observeRepLag(time.Since(start))
			rt.setHolders(key, holders)
		}
		if last != nil {
			last.Body.Close()
		}
		relay(w, resp)
		return
	}
	if last != nil {
		relay(w, last)
		return
	}
	ownerSetDown(w, "no live owner for key "+key)
}

// handleSolve routes a solve to the path endpoint of any shard holding
// the key, rotating the starting replica for read scaling and failing
// over past dead or evicted holders. Unknown keys are 404; keys whose
// every holder is gone get the typed ownerSetDown 503.
func (rt *Router) handleSolve(w http.ResponseWriter, r *http.Request, path string) {
	body, ok := rt.readPost(w, r, "application/json")
	if !ok {
		return
	}
	var req struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	if req.ID == "" {
		httpError(w, http.StatusBadRequest, "missing factorization id")
		return
	}
	holders := rt.holders(req.ID)
	if holders == nil {
		httpError(w, http.StatusNotFound, "unknown factorization id "+req.ID)
		return
	}
	rt.solves.Add(1)

	var last *http.Response
	start := int(rt.rotor.Add(1))
	tried := 0
	for i := 0; i < len(holders); i++ {
		name := holders[(start+i)%len(holders)]
		s := rt.shard(name)
		if s == nil || !s.routable() {
			continue
		}
		if tried > 0 {
			rt.failovers.Add(1)
		}
		tried++
		resp, err := rt.post(s, path, "application/json", body)
		if err != nil {
			continue
		}
		if resp.StatusCode >= 500 || resp.StatusCode == http.StatusNotFound ||
			resp.StatusCode == http.StatusTooManyRequests {
			// Holder draining, saturated, or it lost the entry (LRU):
			// another replica can still answer.
			if last != nil {
				last.Body.Close()
			}
			last = resp
			continue
		}
		if last != nil {
			last.Body.Close()
		}
		relay(w, resp)
		return
	}
	if last != nil {
		relay(w, last)
		return
	}
	ownerSetDown(w, "every shard holding "+req.ID+" is unreachable")
}

// observeRepLag folds one factor-to-replicated latency into the EWMA.
func (rt *Router) observeRepLag(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	rt.lagMu.Lock()
	if rt.repLagMs == 0 {
		rt.repLagMs = ms
	} else {
		rt.repLagMs = 0.7*rt.repLagMs + 0.3*ms
	}
	rt.lagMu.Unlock()
}

// routerShardStats is the per-shard block in the router's /v1/stats.
type routerShardStats struct {
	URL             string          `json:"url"`
	Healthy         bool            `json:"healthy"`
	Draining        bool            `json:"draining"`
	Retired         bool            `json:"retired"`
	Requests        int64           `json:"requests"`
	TransportErrors int64           `json:"transportErrors"`
	Stats           json.RawMessage `json:"stats,omitempty"` // the shard's own /v1/stats, fetched live
}

type routerStats struct {
	RingGen             uint64                      `json:"ringGen"`
	RingMembers         []string                    `json:"ringMembers"`
	Replicas            int                         `json:"replicas"`
	Keys                int                         `json:"keys"`
	Factors             int64                       `json:"factors"`
	Solves              int64                       `json:"solves"`
	Failovers           int64                       `json:"failovers"`
	Replications        int64                       `json:"replications"`
	ReplicationFailures int64                       `json:"replicationFailures"`
	ReplicationLagMs    float64                     `json:"replicationLagMs"`
	Shards              map[string]routerShardStats `json:"shards"`
}

// Stats snapshots the router, fetching each routable shard's own stats
// block live.
func (rt *Router) Stats() routerStats {
	rt.ringMu.RLock()
	gen := rt.ring.Gen()
	members := rt.ring.Nodes()
	rt.ringMu.RUnlock()
	rt.placeMu.Lock()
	keys := len(rt.placements)
	rt.placeMu.Unlock()
	rt.lagMu.Lock()
	lag := rt.repLagMs
	rt.lagMu.Unlock()

	out := routerStats{
		RingGen:             gen,
		RingMembers:         members,
		Replicas:            rt.opt.Replicas,
		Keys:                keys,
		Factors:             rt.factors.Load(),
		Solves:              rt.solves.Load(),
		Failovers:           rt.failovers.Load(),
		Replications:        rt.repOK.Load(),
		ReplicationFailures: rt.repFail.Load(),
		ReplicationLagMs:    lag,
		Shards:              map[string]routerShardStats{},
	}
	for _, s := range rt.shardList() {
		s.mu.Lock()
		st := routerShardStats{
			URL:             s.url,
			Healthy:         s.healthy,
			Draining:        s.draining,
			Retired:         s.retired,
			Requests:        s.requests.Load(),
			TransportErrors: s.errs.Load(),
		}
		alive := s.healthy && !s.retired
		s.mu.Unlock()
		if alive {
			if resp, err := rt.get(s, "/v1/stats"); err == nil {
				if resp.StatusCode == http.StatusOK {
					if b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20)); err == nil && json.Valid(b) {
						st.Stats = b
					}
				}
				resp.Body.Close()
			}
		}
		out.Shards[s.name] = st
	}
	return out
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rt.Stats())
}

func (rt *Router) handleJoin(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readPost(w, r, "application/json")
	if !ok {
		return
	}
	var si ShardInfo
	if err := json.Unmarshal(body, &si); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	if err := rt.Join(si); err != nil {
		httpError(w, http.StatusConflict, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"joined\":%q}\n", si.Name)
}

func (rt *Router) handleDrain(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readPost(w, r, "application/json")
	if !ok {
		return
	}
	var req struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	if req.Name == "" {
		httpError(w, http.StatusBadRequest, "missing shard name")
		return
	}
	if err := rt.Drain(req.Name); err != nil {
		httpError(w, http.StatusConflict, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"drained\":%q}\n", req.Name)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	for _, s := range rt.shardList() {
		if s.placeable() {
			w.WriteHeader(http.StatusOK)
			io.WriteString(w, "ready\n")
			return
		}
	}
	httpError(w, http.StatusServiceUnavailable, "no placeable shard")
}

// Handler returns the router's HTTP surface.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	// A kind is its key prefix plus the shard path its requests go to.
	for _, k := range []struct{ prefix, path string }{{"f", "/v1/factor"}, {"c", "/v1/cholesky"}} {
		mux.HandleFunc(k.path, func(w http.ResponseWriter, r *http.Request) { rt.handleFactor(w, r, k.prefix, k.path) })
	}
	for _, path := range []string{"/v1/solve", "/v1/cholesky/solve"} {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) { rt.handleSolve(w, r, path) })
	}
	mux.HandleFunc("/v1/stats", rt.handleStats)
	mux.HandleFunc("/v1/admin/join", rt.handleJoin)
	mux.HandleFunc("/v1/admin/drain", rt.handleDrain)
	mux.HandleFunc("/healthz", rt.handleHealthz)
	mux.HandleFunc("/readyz", rt.handleReadyz)
	return mux
}
