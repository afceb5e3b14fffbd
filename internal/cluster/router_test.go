package cluster_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/mat"
	"repro/internal/serve"
)

func postJSON(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding reply from %s: %v", url, err)
	}
	return resp.StatusCode, out
}

func ones(n int) string { return strings.Repeat("1,", n-1) + "1" }

// factorVia factors a deterministic test matrix through any front door
// (router or single shard) and returns the assigned id.
func factorVia(t *testing.T, base string, n int, seed int) string {
	t.Helper()
	code, out := postJSON(t, base+"/v1/factor",
		fmt.Sprintf(`{"n":%d,"seed":%d,"workers":1}`, n, seed))
	if code != http.StatusOK {
		t.Fatalf("factor n=%d seed=%d: %d %v", n, seed, code, out)
	}
	return out["id"].(string)
}

func solveVia(t *testing.T, base, id string, n int) (int, map[string]any) {
	t.Helper()
	return postJSON(t, base+"/v1/solve", fmt.Sprintf(`{"id":%q,"b":[%s]}`, id, ones(n)))
}

// TestClusterKillOwnerSolveFromReplica is the tentpole acceptance path:
// factor through the router, kill the shard that owns the key, and the
// solve still succeeds from a replica — bit-identical to the same
// factor+solve on a single-process server.
func TestClusterKillOwnerSolveFromReplica(t *testing.T) {
	c, err := harness.Start(harness.Options{Shards: 3, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n, seed = 32, 7
	id := factorVia(t, c.URL(), n, seed)
	holders := c.Router.Holders(id)
	if len(holders) != 2 {
		t.Fatalf("holders %v, want 2 shards", holders)
	}

	// Single-process reference: same request against one lone server.
	eng, err := engine.New(engine.Options{Workers: 1, MaxInflight: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	lone := httptest.NewServer(serve.New(eng, serve.Options{Keep: 4}).Handler())
	defer lone.Close()
	refID := factorVia(t, lone.URL, n, seed)
	code, refOut := solveVia(t, lone.URL, refID, n)
	if code != http.StatusOK {
		t.Fatalf("reference solve: %d %v", code, refOut)
	}
	ref := refOut["x"].([]any)

	// Kill the owner; two failed probes evict it from the ring.
	c.Kill(holders[0])
	c.Router.ProbeNow()
	c.Router.ProbeNow()

	// Every solve now lands on the surviving replica; the answer must
	// be byte-for-byte the single-process answer.
	for round := 0; round < 3; round++ {
		code, out := solveVia(t, c.URL(), id, n)
		if code != http.StatusOK {
			t.Fatalf("solve after owner kill (round %d): %d %v", round, code, out)
		}
		x := out["x"].([]any)
		if len(x) != n {
			t.Fatalf("solution length %d, want %d", len(x), n)
		}
		for i := range x {
			if x[i].(float64) != ref[i].(float64) {
				t.Fatalf("replica solve diverges from single-process at %d: %v vs %v",
					i, x[i], ref[i])
			}
		}
	}
}

// TestClusterBlockGridBounded: the shards' block-grid bound holds
// through the router — a factor, Cholesky or solve request whose block
// grid exceeds serve.MaxBlocks is the shard's 400 naming the limit, and
// a factor naming a retired field (scheduler) the shard's 400 naming
// it, each relayed without failing over and without any engine job,
// while a small block under the bound still answers 200.
func TestClusterBlockGridBounded(t *testing.T) {
	c, err := harness.Start(harness.Options{Shards: 2, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 256
	id := factorVia(t, c.URL(), n, 5)
	jobs := func() (sum int64) {
		for _, name := range c.Names() {
			st := c.Shard(name).Engine.Stats()
			sum += st.JobsDone + st.JobsFailed
		}
		return sum
	}
	before := jobs()
	limit := fmt.Sprintf("%d-block limit", serve.MaxBlocks)
	for _, req := range []struct{ path, body, want string }{
		{"/v1/factor", `{"n":512,"block":1}`, limit},
		{"/v1/cholesky", `{"n":512,"block":1}`, limit},
		{"/v1/solve", fmt.Sprintf(`{"id":%q,"block":1,"b":[%s]}`, id, ones(n)), limit},
		{"/v1/factor", `{"n":64,"scheduler":"static"}`, "scheduler"},
	} {
		code, out := postJSON(t, c.URL()+req.path, req.body)
		if code != http.StatusBadRequest || !strings.Contains(fmt.Sprint(out["error"]), req.want) {
			t.Errorf("%s %.40s via router: %d %v, want 400 naming %s", req.path, req.body, code, out, req.want)
		}
	}
	if got := jobs(); got != before {
		t.Fatalf("refused requests reached an engine: jobs %d -> %d", before, got)
	}
	if f := c.Router.Stats().Failovers; f != 0 {
		t.Errorf("router failed over %d times on a shard's 400", f)
	}
	if code, out := postJSON(t, c.URL()+"/v1/factor", `{"n":64,"block":2,"workers":1}`); code != http.StatusOK {
		t.Errorf("small block under the bound: %d %v", code, out)
	}
	if code, out := postJSON(t, c.URL()+"/v1/solve", fmt.Sprintf(`{"id":%q,"block":4,"b":[%s]}`, id, ones(n))); code != http.StatusOK {
		t.Errorf("small-block solve under the bound: %d %v", code, out)
	}
}

// TestClusterDeadlineBeyondDurationRelayed: a deadlineMs longer than
// the longest time.Duration is the shard's 400 naming the bound,
// relayed by the router as is — not a 503 that sends it round every
// owner of the key.
func TestClusterDeadlineBeyondDurationRelayed(t *testing.T) {
	c, err := harness.Start(harness.Options{Shards: 2, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	code, out := postJSON(t, c.URL()+"/v1/factor", `{"n":8,"seed":1,"workers":1,"deadlineMs":1e13}`)
	if code != http.StatusBadRequest || !strings.Contains(fmt.Sprint(out["error"]), "9223372036854") {
		t.Errorf("factor with deadlineMs 1e13 via router: %d %v, want 400 naming the bound", code, out)
	}
	if f := c.Router.Stats().Failovers; f != 0 {
		t.Errorf("router failed over %d times on a shard's 400", f)
	}
}

// TestClusterOwnerSetDown: with replicas=1 the key lives on exactly one
// shard; killing it turns solves into the typed ownerSetDown 503, as it
// does for an id nobody factored whose owner is the dead shard, while
// one whose owner is alive stays a plain 404, a key drained away with
// its last holder is the 503 again, and client-supplied factor ids and
// oversized generated matrices are rejected.
func TestClusterOwnerSetDown(t *testing.T) {
	c, err := harness.Start(harness.Options{Shards: 2, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	code, out := postJSON(t, c.URL()+"/v1/factor", `{"id":"f-9","n":8,"seed":1,"workers":1}`)
	if code != http.StatusBadRequest {
		t.Fatalf("client-supplied id: %d %v, want 400", code, out)
	}
	// A generated matrix over the shards' body cap is the shard's 400,
	// relayed — not a handler panic or an 80 GB allocation behind the
	// router.
	for _, path := range []string{"/v1/factor", "/v1/cholesky"} {
		for _, n := range []string{"4000000000", "100000"} {
			if code, out := postJSON(t, c.URL()+path, `{"n":`+n+`}`); code != http.StatusBadRequest {
				t.Errorf("%s n=%s via router: %d %v, want 400", path, n, code, out)
			}
		}
	}

	const n = 16
	id := factorVia(t, c.URL(), n, 3)
	holders := c.Router.Holders(id)
	if len(holders) != 1 {
		t.Fatalf("holders %v, want exactly 1 with replicas=1", holders)
	}
	c.Kill(holders[0])
	c.Router.ProbeNow()
	c.Router.ProbeNow()

	code, out = solveVia(t, c.URL(), id, n)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("solve with owner set down: %d %v, want 503", code, out)
	}
	if out["ownerSetDown"] != true {
		t.Fatalf("503 not typed: %v", out)
	}

	// An id nobody factored whose owner is alive is that owner's 404.
	// Whose owner is down it is the 503 too: the dead shard may hold it.
	ref := cluster.NewRing()
	ref.Add("s1")
	ref.Add("s2")
	unknown := map[bool]string{}
	for i := 0; len(unknown) < 2; i++ {
		id := fmt.Sprintf("f-404-%d", i)
		unknown[ref.Owners(id, 1)[0] == holders[0]] = id
	}
	code, _ = solveVia(t, c.URL(), unknown[false], n)
	if code != http.StatusNotFound {
		t.Fatalf("unknown id with a live owner: %d, want 404", code)
	}
	code, out = solveVia(t, c.URL(), unknown[true], n)
	if code != http.StatusServiceUnavailable || out["ownerSetDown"] != true {
		t.Fatalf("unknown id with a dead owner: %d %v, want the typed 503", code, out)
	}

	// A key whose last holder was drained away has no candidate left:
	// the same typed 503.
	lone, err := harness.Start(harness.Options{Shards: 1, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lone.Close()
	id = factorVia(t, lone.URL(), n, 3)
	if err := lone.Router.Drain("s1"); err != nil {
		t.Fatal(err)
	}
	if hs := lone.Router.Holders(id); len(hs) != 0 {
		t.Fatalf("holders %v after draining the only shard, want none", hs)
	}
	code, out = solveVia(t, lone.URL(), id, n)
	if code != http.StatusServiceUnavailable || out["ownerSetDown"] != true {
		t.Fatalf("solve of a drained-away key: %d %v, want the typed 503", code, out)
	}
}

// TestClusterDrainZeroFailedRequests drains a shard while solves hammer
// every key: the kept factorizations migrate to the owners under the
// shrunken ring and no client request fails at any point.
func TestClusterDrainZeroFailedRequests(t *testing.T) {
	c, err := harness.Start(harness.Options{Shards: 3, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n, keys = 16, 6
	ids := make([]string, keys)
	for i := range ids {
		ids[i] = factorVia(t, c.URL(), n, i+1)
	}
	// Drain a shard that actually holds keys (with 6 keys x 2 replicas
	// over 3 shards, every shard holds some; pick the first holder of
	// the first key to be sure).
	victim := c.Router.Holders(ids[0])[0]

	var failed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := fmt.Sprintf(`{"id":%q,"b":[%s]}`, ids[0], ones(n))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				b := body
				if i%2 == 1 { // alternate keys for spread
					b = fmt.Sprintf(`{"id":%q,"b":[%s]}`, ids[i%keys], ones(n))
				}
				resp, err := http.Post(c.URL()+"/v1/solve", "application/json", strings.NewReader(b))
				if err != nil {
					failed.Add(1)
					continue
				}
				if resp.StatusCode != http.StatusOK {
					failed.Add(1)
				}
				resp.Body.Close()
			}
		}()
	}

	code, out := postJSON(t, c.URL()+"/v1/admin/drain", fmt.Sprintf(`{"name":%q}`, victim))
	close(stop)
	wg.Wait()
	if code != http.StatusOK {
		t.Fatalf("drain: %d %v", code, out)
	}
	if f := failed.Load(); f != 0 {
		t.Fatalf("%d client requests failed during drain, want 0", f)
	}

	// Post-drain invariants: the victim holds no placements, every key
	// kept its replica count on the survivors, and all keys still solve.
	for _, id := range ids {
		hs := c.Router.Holders(id)
		if len(hs) != 2 {
			t.Fatalf("key %s holders %v after drain, want 2", id, hs)
		}
		for _, h := range hs {
			if h == victim {
				t.Fatalf("key %s still placed on drained shard %s", id, victim)
			}
			sh := c.Shard(h)
			if sh == nil {
				t.Fatalf("holder %s of %s not running", h, id)
			}
			if _, ok := sh.Server.Store().Get(id); !ok {
				t.Fatalf("holder %s does not actually hold %s", h, id)
			}
		}
		if code, out := solveVia(t, c.URL(), id, n); code != http.StatusOK {
			t.Fatalf("solve %s after drain: %d %v", id, code, out)
		}
	}
	// The drained shard reports not-ready and refuses new jobs.
	resp, err := http.Get(c.Shard(victim).URL() + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drained shard readyz: %d, want 503", resp.StatusCode)
	}
}

// TestClusterJoinMigratesReassignedKeys: a spawned shard joins through
// the router, the ring generation bumps, and every key's holder set
// matches an offline recomputation of the rebalanced ring — keys
// reassigned to the new shard were physically migrated.
func TestClusterJoinMigratesReassignedKeys(t *testing.T) {
	c, err := harness.Start(harness.Options{Shards: 2, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n, keys = 8, 8
	ids := make([]string, keys)
	for i := range ids {
		ids[i] = factorVia(t, c.URL(), n, i+1)
	}
	genBefore := c.Router.Stats().RingGen

	sh, err := c.Spawn()
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Router.Stats().RingGen; got != genBefore+1 {
		t.Fatalf("ring generation %d after join, want %d", got, genBefore+1)
	}

	// Offline recomputation: the ring is deterministic in membership,
	// so an independent build must agree with the router's placements.
	ref := cluster.NewRing()
	ref.Add("s1")
	ref.Add("s2")
	ref.Add(sh.Name)
	migrated := 0
	for _, id := range ids {
		want := ref.Owners(id, 2)
		got := c.Router.Holders(id)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("key %s holders %v, want ring owners %v", id, got, want)
		}
		for _, h := range want {
			if _, ok := c.Shard(h).Server.Store().Get(id); !ok {
				t.Fatalf("ring owner %s does not hold %s after join", h, id)
			}
			if h == sh.Name {
				migrated++
			}
		}
		if code, out := solveVia(t, c.URL(), id, n); code != http.StatusOK {
			t.Fatalf("solve %s after join: %d %v", id, code, out)
		}
	}
	if migrated == 0 {
		t.Fatalf("no key migrated to the joined shard %s (holders all %v)", sh.Name, c.Router.Holders(ids[0]))
	}
}

// TestClusterStatsAggregation: the router's /v1/stats carries ring
// state, router counters and a live per-shard block.
func TestClusterStatsAggregation(t *testing.T) {
	c, err := harness.Start(harness.Options{Shards: 3, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 16
	a := factorVia(t, c.URL(), n, 1)
	b := factorVia(t, c.URL(), n, 2)
	for _, id := range []string{a, b} {
		if code, out := solveVia(t, c.URL(), id, n); code != http.StatusOK {
			t.Fatalf("solve %s: %d %v", id, code, out)
		}
	}

	resp, err := http.Get(c.URL() + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st["ringGen"].(float64) != 3 { // three initial Adds
		t.Fatalf("ringGen %v, want 3", st["ringGen"])
	}
	if st["replicas"].(float64) != 2 || st["factors"].(float64) != 2 || st["solves"].(float64) != 2 {
		t.Fatalf("router counters off: %v", st)
	}
	if st["replications"].(float64) < 2 { // each factor fanned out once
		t.Fatalf("replications %v, want >= 2", st["replications"])
	}
	shards := st["shards"].(map[string]any)
	if len(shards) != 3 {
		t.Fatalf("stats cover %d shards, want 3", len(shards))
	}
	var reqs, kept float64
	for name, v := range shards {
		blk := v.(map[string]any)
		if blk["healthy"] != true || blk["retired"] != false {
			t.Fatalf("shard %s state %v", name, blk)
		}
		reqs += blk["requests"].(float64)
		inner, ok := blk["stats"].(map[string]any)
		if !ok {
			t.Fatalf("shard %s missing live stats block", name)
		}
		if _, ok := inner["engine"]; !ok {
			t.Fatalf("shard %s live stats missing engine block: %v", name, inner)
		}
		kept += inner["store"].(map[string]any)["count"].(float64)
	}
	if reqs < 4 {
		t.Fatalf("total proxied shard requests %v, want >= 4", reqs)
	}
	if kept != 4 { // two keys, two replicas each
		t.Fatalf("shards keep %v factorizations, want 4", kept)
	}
	// Readiness: healthy cluster is ready; the router itself is healthy.
	for _, path := range []string{"/healthz", "/readyz"} {
		r, err := http.Get(c.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("router %s: %d, want 200", path, r.StatusCode)
		}
	}
}

// TestClusterFactorFailoverToReplica: a factor whose primary owner
// drops the connection fails over to the next owner rather than failing
// the request, and the primary is back-filled, so the key gets R
// holders. Once probes retire a dead shard, new keys avoid it: each one
// is owned by live shards only and still gets R holders.
func TestClusterFactorFailoverToReplica(t *testing.T) {
	ref := cluster.NewRing()
	servers := map[string]*httptest.Server{}
	var infos []cluster.ShardInfo
	for _, name := range []string{"a", "b", "c"} {
		_, ts := newShardServer(t, func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if name == "a" && r.URL.Path == "/v1/factor" {
					conn, _, _ := w.(http.Hijacker).Hijack()
					conn.Close()
					return
				}
				h.ServeHTTP(w, r)
			})
		})
		ref.Add(name)
		servers[name] = ts
		infos = append(infos, cluster.ShardInfo{Name: name, URL: ts.URL})
	}
	rt, front := newFront(t, infos, 2)

	// Keys are random, so factor until one's primary is a.
	const n = 16
	id, owners := "", []string(nil)
	for i := 0; i < 200 && (owners == nil || owners[0] != "a"); i++ {
		id = factorVia(t, front, n, 5) // must succeed on a replica
		owners = ref.Owners(id, 2)
	}
	if owners[0] != "a" {
		t.Fatal("no key of 200 hashed to a first")
	}
	if st := rt.Stats(); st.Failovers != 1 {
		t.Fatalf("failovers %d, want 1 (only the last factor's primary dropped it)", st.Failovers)
	}
	if hs := rt.Holders(id); fmt.Sprint(hs) != fmt.Sprint(owners) {
		t.Fatalf("holders %v, want both owners %v", hs, owners)
	}
	if code, out := solveVia(t, front, id, n); code != http.StatusOK {
		t.Fatalf("solve after factor failover: %d %v", code, out)
	}

	servers["a"].Close()
	for range 3 { // RouterOptions' default FailAfter
		rt.ProbeNow()
	}
	for i := range 10 {
		id := factorVia(t, front, n, i+1)
		owners := ref.Owners(id, 2)
		if hs := rt.Holders(id); slices.Contains(owners, "a") || fmt.Sprint(hs) != fmt.Sprint(owners) {
			t.Fatalf("key %s with a dead: owners %v, holders %v; want two live owners holding it", id, owners, hs)
		}
		if code, out := solveVia(t, front, id, n); code != http.StatusOK {
			t.Fatalf("solve %s with a dead: %d %v", id, code, out)
		}
	}
}

// TestClusterJoinDoesNotResurrectEvictedShard: Join clones the ring,
// migrates against the clone, and only then installs it. A shard
// evicted for transport failures during that migration window must
// stay unhealthy after the swap — health lives in the shard flags, not
// in the ring — and the cluster must keep factoring and solving.
func TestClusterJoinDoesNotResurrectEvictedShard(t *testing.T) {
	newShard := func(name string) (*serve.Server, *engine.Engine) {
		eng, err := engine.New(engine.Options{Workers: 1, MaxInflight: 16})
		if err != nil {
			t.Fatalf("engine for %s: %v", name, err)
		}
		return serve.New(eng, serve.Options{Keep: 32}), eng
	}
	srvA, engA := newShard("a")
	defer engA.Close()
	shardA := httptest.NewServer(srvA.Handler())
	defer shardA.Close()
	srvB, engB := newShard("b")
	defer engB.Close()
	shardB := httptest.NewServer(srvB.Handler())
	defer shardB.Close()

	rt, err := cluster.NewRouter(cluster.RouterOptions{
		Shards: []cluster.ShardInfo{
			{Name: "a", URL: shardA.URL},
			{Name: "b", URL: shardB.URL},
		},
		Replicas:  2,
		FailAfter: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	const n, keys = 8, 8
	for i := 0; i < keys; i++ {
		factorVia(t, front.URL, n, i+1)
	}

	// Shard c is a real serve shard behind an interposer: the first
	// import that reaches it runs mid-Join — after the prospective ring
	// was cloned, before it is installed. At exactly that point, kill b
	// and force a probe pass, so the eviction edits the ring the Join
	// is about to replace.
	srvC, engC := newShard("c")
	defer engC.Close()
	var tripped atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/admin/import") && tripped.CompareAndSwap(false, true) {
			shardB.Close()
			rt.ProbeNow()
		}
		srvC.Handler().ServeHTTP(w, r)
	})
	shardC := httptest.NewServer(mux)
	defer shardC.Close()

	if err := rt.Join(cluster.ShardInfo{Name: "c", URL: shardC.URL}); err != nil {
		t.Fatalf("join: %v", err)
	}
	if !tripped.Load() {
		t.Fatal("no import reached the joining shard; the eviction window was never exercised")
	}

	st := rt.Stats()
	if st.Shards["b"].Healthy {
		t.Fatal("shard b was evicted mid-join but is healthy after the ring swap")
	}
	if fmt.Sprint(st.RingMembers) != "[a b c]" {
		t.Fatalf("ring members %v, want every non-retired member [a b c]", st.RingMembers)
	}
	id := factorVia(t, front.URL, n, keys+1)
	if code, out := solveVia(t, front.URL, id, n); code != http.StatusOK {
		t.Fatalf("solve after the join: %d %v", code, out)
	}
}

// newShardServer boots one serve shard behind wrap(its handler).
func newShardServer(t *testing.T, wrap func(http.Handler) http.Handler) (*serve.Server, *httptest.Server) {
	t.Helper()
	eng, err := engine.New(engine.Options{Workers: 1, MaxInflight: 16})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(eng, serve.Options{Keep: 32})
	ts := httptest.NewServer(wrap(srv.Handler()))
	t.Cleanup(func() { ts.Close(); eng.Close() })
	return srv, ts
}

// TestClusterFactorForwardsClientBytes: the router forwards a factor
// request as the bytes that arrived (the key rides as ?id=), so what the
// owner stores is bit-identical to the same body posted to a lone shard
// — sent here without a Content-Type, which both tiers accept — the
// placement record is the ring's owner set in ring order, and a body the
// router cannot parse is the shard's 400, relayed.
func TestClusterFactorForwardsClientBytes(t *testing.T) {
	c, err := harness.Start(harness.Options{Shards: 3, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	loneSrv, lone := newShardServer(t, func(h http.Handler) http.Handler { return h })

	const body = `{"rows":3,"cols":3,"data":[0.1,2.5e-3,7,1e100,0.30000000000000004,-4,5,6.02214076e23,1],"workers":1}`
	post := func(url string) string {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, url+"/v1/factor", strings.NewReader(body)) // no Content-Type
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("factor via %s: %d %v %v", url, resp.StatusCode, out, err)
		}
		return out["id"].(string)
	}
	id, refID := post(c.URL()), post(lone.URL)

	ref := cluster.NewRing()
	for _, name := range c.Names() {
		ref.Add(name)
	}
	holders := c.Router.Holders(id)
	if want := ref.Owners(id, 2); fmt.Sprint(holders) != fmt.Sprint(want) {
		t.Fatalf("holders %v, want the ring's owners %v, primary first", holders, want)
	}
	want, _ := loneSrv.Store().Get(refID)
	for _, h := range holders {
		got, ok := c.Shard(h).Server.Store().Get(id)
		if !ok {
			t.Fatalf("holder %s does not hold %s", h, id)
		}
		if fmt.Sprint(got.LU.Perm, got.LU.L.Data, got.LU.U.Data) != fmt.Sprint(want.LU.Perm, want.LU.L.Data, want.LU.U.Data) {
			t.Fatalf("factorization stored on %s differs from the direct one", h)
		}
	}

	code, out := postJSON(t, c.URL()+"/v1/factor", `{"n":`)
	if code != http.StatusBadRequest || !strings.HasPrefix(fmt.Sprint(out["error"]), "bad request") {
		t.Fatalf("unparseable body via router: %d %v, want the shard's 400", code, out)
	}
}

// TestClusterFactorFailoverBackfillsPrimary: when the primary owner
// sheds a factor (429) the job runs on the next owner, and the primary —
// still alive — is back-filled by the same key copy a migration uses:
// the holders come out in ring order, primary first.
func TestClusterFactorFailoverBackfillsPrimary(t *testing.T) {
	ref := cluster.NewRing()
	ref.Add("a")
	ref.Add("b")

	stores := map[string]*serve.Server{}
	var infos []cluster.ShardInfo
	for _, name := range []string{"a", "b"} {
		srv, ts := newShardServer(t, func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if name == "a" && r.URL.Path == "/v1/factor" {
					cluster.HTTPError(w, http.StatusTooManyRequests, "saturated")
					return
				}
				h.ServeHTTP(w, r)
			})
		})
		stores[name] = srv
		infos = append(infos, cluster.ShardInfo{Name: name, URL: ts.URL})
	}
	rt, front := newFront(t, infos, 2)

	// Keys are random, so factor until one's primary is the shedding a.
	id, owners, tries := "", []string(nil), int64(0)
	for ; tries < 200 && (owners == nil || owners[0] != "a"); tries++ {
		id = factorVia(t, front, 8, 1)
		owners = ref.Owners(id, 2)
	}
	if got := rt.Holders(id); owners[0] != "a" || fmt.Sprint(got) != fmt.Sprint(owners) {
		t.Fatalf("key %s holders %v, want primary a first in %v", id, got, owners)
	}
	for _, name := range owners {
		if _, ok := stores[name].Store().Get(id); !ok {
			t.Fatalf("owner %s does not hold %s after the failover", name, id)
		}
	}
	// Only the last factor failed over; every factor copied once.
	if st := rt.Stats(); st.Failovers != 1 || st.Replications != tries {
		t.Fatalf("failovers %d replications %d, want 1 and %d", st.Failovers, st.Replications, tries)
	}
}

// TestClusterHungShardIsBounded: a shard that accepts connections and
// never answers costs the router's own requests a bounded wait. The
// /v1/stats fan-out returns without the hung shard's block, and a Join
// of a hung shard fails instead of holding the admin lock — a Drain
// issued afterwards gets its turn.
func TestClusterHungShardIsBounded(t *testing.T) {
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { <-release }))
	defer hung.Close()
	defer close(release)
	_, good := newShardServer(t, func(h http.Handler) http.Handler { return h })

	rt, err := cluster.NewRouter(cluster.RouterOptions{
		Shards:   []cluster.ShardInfo{{Name: "good", URL: good.URL}, {Name: "hung", URL: hung.URL}},
		Replicas: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	const bound = 10 * time.Second
	within := func(what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { defer close(done); f() }()
		select {
		case <-done:
		case <-time.After(bound):
			t.Fatalf("%s still blocked on the hung shard after %s", what, bound)
		}
	}
	within("Stats", func() {
		st := rt.Stats()
		if st.Shards["good"].Stats == nil || st.Shards["hung"].Stats != nil {
			t.Errorf("stats blocks: good %s, hung %s; want only the good shard's", st.Shards["good"].Stats, st.Shards["hung"].Stats)
		}
	})
	within("Join then Drain", func() {
		if err := rt.Join(cluster.ShardInfo{Name: "late", URL: hung.URL}); err == nil {
			t.Error("join of a shard that never answers /readyz succeeded")
		}
		if err := rt.Drain("late"); err == nil || !strings.Contains(err.Error(), "unknown shard") {
			t.Errorf("drain after the failed join: %v, want unknown shard", err)
		}
	})
}

// TestClusterClientGoneCancelsShardJob: the router forwards under the
// client's context, so a client that gives up at the router while the
// shard's job is still queued withdraws that job. The cancellation is
// not the shards' fault: both stay routable, with no transport error
// and no failover counted.
func TestClusterClientGoneCancelsShardJob(t *testing.T) {
	c, err := harness.Start(harness.Options{Shards: 2, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 8
	id := factorVia(t, c.URL(), n, 1)
	names := c.Names()
	// total sums an engine counter over the shards.
	total := func(f func(engine.Stats) int64) (sum int64) {
		for _, name := range names {
			sum += f(c.Shard(name).Engine.Stats())
		}
		return sum
	}
	await := func(what string, f func(engine.Stats) int64, want int64) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); total(f) != want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %d, want %d", what, total(f), want)
			}
		}
	}
	active := func(st engine.Stats) int64 { return int64(st.Active) }
	pending := func(st engine.Stats) int64 { return int64(st.Pending) }
	cancelled := func(st engine.Stats) int64 { return st.Cancelled }

	// Hold each shard's only worker with a job gated on a channel.
	release := make(chan struct{})
	var rel sync.Once
	unblock := func() { rel.Do(func() { close(release) }) }
	defer unblock() // before c.Close, which waits for the shards' handlers
	gates := make([]*engine.Job, len(names))
	for i, name := range names {
		var once sync.Once
		gates[i], err = c.Shard(name).Engine.Submit(context.Background(), engine.FactorWork(mat.Random(96, 96, rand.New(rand.NewSource(1)))), core.Options{
			Workers: 1,
			Noise:   func(int) time.Duration { once.Do(func() { <-release }); return 0 },
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	await("the gate jobs to start", active, int64(len(names)))

	for i, r := range []struct{ path, body string }{
		{"/v1/factor", fmt.Sprintf(`{"n":%d,"seed":2,"workers":1}`, n)},
		{"/v1/solve", fmt.Sprintf(`{"id":%q,"b":[%s]}`, id, ones(n))},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() {
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.URL()+r.path, strings.NewReader(r.body))
			if err != nil {
				errc <- err
				return
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
			errc <- err
		}()
		await(r.path+" to queue on a shard", pending, 1)
		cancel() // the client gives up at the router
		if err := <-errc; err == nil {
			t.Fatalf("%s: cancelled request got a reply", r.path)
		}
		await(r.path+" to be withdrawn on the shard", cancelled, int64(i+1))
	}

	st := c.Router.Stats()
	for _, name := range names {
		if sh := st.Shards[name]; !sh.Healthy || sh.TransportErrors != 0 {
			t.Errorf("shard %s after the cancellations: healthy %v, %d transport errors; want true and 0", name, sh.Healthy, sh.TransportErrors)
		}
	}
	if st.Failovers != 0 || len(st.RingMembers) != len(names) {
		t.Errorf("failovers %d, ring %v; want 0 and %v", st.Failovers, st.RingMembers, names)
	}
	unblock()
	for _, g := range gates {
		if err := g.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if code, out := solveVia(t, c.URL(), id, n); code != http.StatusOK {
		t.Fatalf("solve after the cancellations: %d %v", code, out)
	}
}

// newFront starts a router with replicas R over infos behind an HTTP
// listener, both closed at the end of the test.
func newFront(t *testing.T, infos []cluster.ShardInfo, replicas int) (*cluster.Router, string) {
	t.Helper()
	rt, err := cluster.NewRouter(cluster.RouterOptions{Shards: infos, Replicas: replicas})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { front.Close(); rt.Close() })
	return rt, front.URL
}

// TestClusterRouterRestartKeepsKeys: the router keeps no state per key,
// so a second router over the same shards — a restarted hsdrouter —
// solves every key the first one placed bit-identically, and the keys
// it mints never reuse an old id.
func TestClusterRouterRestartKeepsKeys(t *testing.T) {
	var infos []cluster.ShardInfo
	for _, name := range []string{"a", "b", "c"} {
		_, ts := newShardServer(t, func(h http.Handler) http.Handler { return h })
		infos = append(infos, cluster.ShardInfo{Name: name, URL: ts.URL})
	}
	const n, keys = 8, 6
	_, first := newFront(t, infos, 2)
	xs := map[string]string{}
	for i := 0; i < keys; i++ {
		id := factorVia(t, first, n, i+1)
		code, out := solveVia(t, first, id, n)
		if code != http.StatusOK {
			t.Fatalf("solve %s: %d %v", id, code, out)
		}
		xs[id] = fmt.Sprint(out["x"])
	}

	_, second := newFront(t, infos, 2)
	for id, x := range xs {
		code, out := solveVia(t, second, id, n)
		if code != http.StatusOK || fmt.Sprint(out["x"]) != x {
			t.Fatalf("solve %s after the restart: %d %v, want 200 with x %s", id, code, out, x)
		}
	}
	for i := 0; i < keys; i++ {
		if id := factorVia(t, second, n, 100+i); xs[id] != "" {
			t.Fatalf("the restarted router reused id %s", id)
		}
	}
}

// TestClusterReplicationLagExcludesFactor: the replication-lag clock
// starts when the owner's 200 arrives, so a slow factor is not counted
// as replication.
func TestClusterReplicationLagExcludesFactor(t *testing.T) {
	const delay = 200 * time.Millisecond
	var infos []cluster.ShardInfo
	for _, name := range []string{"a", "b"} {
		_, ts := newShardServer(t, func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/factor" {
					time.Sleep(delay)
				}
				h.ServeHTTP(w, r)
			})
		})
		infos = append(infos, cluster.ShardInfo{Name: name, URL: ts.URL})
	}
	rt, front := newFront(t, infos, 2)
	factorVia(t, front, 8, 1)
	if st := rt.Stats(); st.Replications != 1 || st.ReplicationLagMs <= 0 || st.ReplicationLagMs >= float64(delay/time.Millisecond) {
		t.Fatalf("replications %d, lag %.1f ms; want 1 copy timed under the %v factor", st.Replications, st.ReplicationLagMs, delay)
	}
}

// TestClusterRejoinedOwnerKeepsKeys: keys factored while a shard is
// probed out live only on live owners, so once it is probed back in and
// owns nothing it did not get, every key still solves.
func TestClusterRejoinedOwnerKeepsKeys(t *testing.T) {
	var down atomic.Bool
	var infos []cluster.ShardInfo
	for _, name := range []string{"a", "b"} {
		_, ts := newShardServer(t, func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if name == "a" && down.Load() {
					cluster.HTTPError(w, http.StatusServiceUnavailable, "down")
					return
				}
				h.ServeHTTP(w, r)
			})
		})
		infos = append(infos, cluster.ShardInfo{Name: name, URL: ts.URL})
	}
	rt, front := newFront(t, infos, 1)

	down.Store(true)
	for range 3 { // RouterOptions' default FailAfter
		rt.ProbeNow()
	}
	const n, keys = 8, 16
	ids := make([]string, keys)
	for i := range ids {
		ids[i] = factorVia(t, front, n, i+1)
	}
	down.Store(false)
	rt.ProbeNow()
	if !rt.Stats().Shards["a"].Healthy {
		t.Fatal("shard a is not healthy after a successful probe")
	}
	for _, id := range ids {
		if code, out := solveVia(t, front, id, n); code != http.StatusOK {
			t.Fatalf("solve %s after a rejoined: %d %v", id, code, out)
		}
	}
}

// TestClusterFactorDuringJoinIsMigrated: a key factored while a Join's
// first copy pass runs — after the pass listed its holder — is placed
// under the old ring; the pass after the ring swap still copies it to
// its new owner, so it solves once the Join returns (R = 1, so the new
// owner is its only one).
func TestClusterFactorDuringJoinIsMigrated(t *testing.T) {
	listing, release := make(chan struct{}), make(chan struct{})
	var blocked atomic.Bool
	var infos []cluster.ShardInfo
	for _, name := range []string{"a", "b"} {
		_, ts := newShardServer(t, func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				// The first listing of b — the last shard the pass lists —
				// waits until the test has factored onto a.
				if name == "b" && r.URL.Path == "/v1/admin/export" && r.URL.RawQuery == "" && blocked.CompareAndSwap(false, true) {
					close(listing)
					<-release
				}
				h.ServeHTTP(w, r)
			})
		})
		infos = append(infos, cluster.ShardInfo{Name: name, URL: ts.URL})
	}
	rt, front := newFront(t, infos, 1)
	_, joiner := newShardServer(t, func(h http.Handler) http.Handler { return h })

	joined := make(chan error, 1)
	go func() { joined <- rt.Join(cluster.ShardInfo{Name: "c", URL: joiner.URL}) }()
	select {
	case <-listing:
	case err := <-joined:
		t.Fatalf("join returned before listing b: %v", err)
	}

	old, next := cluster.NewRing(), cluster.NewRing()
	for _, name := range []string{"a", "b", "c"} {
		if name != "c" {
			old.Add(name)
		}
		next.Add(name)
	}
	// Factor until a key lands on a (listed already) and moves to c.
	const n = 8
	id := ""
	for i := 0; i < 200 && (id == "" || old.Owners(id, 1)[0] != "a" || next.Owners(id, 1)[0] != "c"); i++ {
		id = factorVia(t, front, n, 1)
	}
	close(release)
	if err := <-joined; err != nil {
		t.Fatalf("join: %v", err)
	}
	if old.Owners(id, 1)[0] != "a" || next.Owners(id, 1)[0] != "c" {
		t.Fatal("no key of 200 moved from a to c")
	}
	if code, out := solveVia(t, front, id, n); code != http.StatusOK {
		t.Fatalf("solve %s of a key factored mid-join: %d %v", id, code, out)
	}
}
