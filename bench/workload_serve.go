package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mat"
)

const (
	serveN = 512
	// serveBodies is the pool of distinct request matrices serve_factor
	// cycles through; the bodies are built in set-up so that encoding
	// them does not compete with the servers for the processor.
	serveBodies = 8
	// serveCheckEvery: every eighth factor reply is followed, off the
	// clock, by a solve whose residual is checked.
	serveCheckEvery = 8

	solveKeys  = 8
	solveNRHS  = 8
	solveRate  = 80.0 // requests per second, open loop
	solveLimit = 25 * time.Millisecond
	solveZipfS = 1.1
)

// serveWorkload drives the in-process cluster (2 shards, 2 replicas, 1
// engine worker each) through its router over W HTTP connections.
//
// serve_factor is a closed loop of W clients posting /v1/factor with an
// explicit row-major n=512 matrix: the write path. serve_solve is an
// open loop at a fixed 80 requests per second posting /v1/solve, nrhs=8,
// against eight keys factored in set-up, the key drawn Zipf(1.1): the
// read path, with latency counted from each request's due time.
type serveWorkload struct {
	solve bool

	c      *harness.Cluster
	client *http.Client

	// serve_factor inputs: the matrices, the request bodies without
	// their opening brace (so a direct request can prepend an id), and
	// the right-hand sides of the checking solves.
	mats  []*mat.Dense
	tails [][]byte
	rhs   [][]float64
	// sent numbers the factor requests across the slices of a window: it
	// picks the body and every eighth request's check.
	sent atomic.Int64

	// serve_solve inputs.
	keys  []solveKey
	draws *rand.Zipf
}

// solveKey is one resident factorization of serve_solve.
type solveKey struct {
	body []byte // the solve request
	// want is the JSON of the solution block computed in process in
	// set-up; a correct reply contains it byte for byte.
	want   []byte
	holder string // URL of a shard holding the key, for direct requests
}

// factorBody is the JSON of a /v1/factor request carrying a.
func factorBody(a *mat.Dense) []byte {
	return append([]byte("{"), factorTail(a)...)
}

func factorTail(a *mat.Dense) []byte {
	data := make([]float64, 0, a.Rows*a.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			data = append(data, a.At(i, j))
		}
	}
	js, _ := json.Marshal(data) // finite floats always encode
	return fmt.Appendf(nil, `"rows":%d,"cols":%d,"block":%d,"data":%s}`, a.Rows, a.Cols, luBlock, js)
}

// reply is the part of a factor or solve reply the benchmark reads.
type reply struct {
	ID          string    `json:"id"`
	X           []float64 `json:"x"`
	QueueWaitMs float64   `json:"queueWaitMs"`
	SpanMs      float64   `json:"spanMs"`
}

// post sends one request and reads the whole reply; the round trip runs
// from just before the send to the last byte.
func (s *serveWorkload) post(url string, parts ...[]byte) (status int, body []byte, sent, done time.Time, err error) {
	readers := make([]io.Reader, len(parts))
	size := 0
	for i, p := range parts {
		readers[i] = bytes.NewReader(p)
		size += len(p)
	}
	req, err := http.NewRequest(http.MethodPost, url, io.MultiReader(readers...))
	if err != nil {
		return 0, nil, sent, done, err
	}
	req.ContentLength = int64(size)
	req.Header.Set("Content-Type", "application/json")
	sent = time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, sent, time.Now(), err
	}
	body, err = io.ReadAll(resp.Body)
	done = time.Now()
	resp.Body.Close()
	return resp.StatusCode, body, sent, done, err
}

func (s *serveWorkload) setup(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	w := loadWidth()
	var err error
	if s.c, err = harness.Start(harness.Options{Shards: 2, Replicas: 2, Workers: 1}); err != nil {
		return err
	}
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * w}}
	if s.solve {
		return s.setupSolve(seed, rng)
	}
	s.mats, s.tails, s.rhs = nil, nil, nil
	s.sent.Store(0)
	for k := 0; k < serveBodies; k++ {
		a := mat.Random(serveN, serveN, rng)
		b := make([]float64, serveN)
		for i := range b {
			b[i] = 2*rng.Float64() - 1
		}
		s.mats, s.tails, s.rhs = append(s.mats, a), append(s.tails, factorTail(a)), append(s.rhs, b)
	}
	// Warm-up: one checked op per connection.
	for k := 0; k < w; k++ {
		op := s.factorOp(k*serveCheckEvery, false)
		if !op.ok || !op.checked {
			return fmt.Errorf("warm-up factor %d failed", k)
		}
	}
	return nil
}

func (s *serveWorkload) setupSolve(seed int64, rng *rand.Rand) error {
	s.keys = nil
	s.draws = rand.NewZipf(rng, solveZipfS, 1, solveKeys-1)
	opt := hybridOptions(luBlock, 1)
	for k := 0; k < solveKeys; k++ {
		// The shard generates the matrix from the seed in the request;
		// the same generator gives the in-process reference its input.
		matSeed := seed*solveKeys + int64(k)
		status, body, _, _, err := s.post(s.c.URL()+"/v1/factor",
			fmt.Appendf(nil, `{"n":%d,"seed":%d,"block":%d}`, serveN, matSeed, luBlock))
		var rep reply
		if err != nil || status != http.StatusOK || json.Unmarshal(body, &rep) != nil || rep.ID == "" {
			return fmt.Errorf("pre-factoring key %d: status %d err %v", k, status, err)
		}
		a := mat.Random(serveN, serveN, rand.New(rand.NewSource(matSeed)))
		f, err := core.Factor(a, opt)
		if err != nil {
			return err
		}
		b := mat.Random(serveN, solveNRHS, rng)
		x, err := f.SolveMany(b, opt)
		if err != nil {
			return err
		}
		for c := 0; c < solveNRHS; c++ {
			if r := core.SolveResidual(a, x.Col(c), b.Col(c)); r > solveTol {
				return fmt.Errorf("reference solve residual %g above %g", r, solveTol)
			}
		}
		bjs, _ := json.Marshal(b.Data)
		want, _ := json.Marshal(x.Data)
		holders := s.c.Router.Holders(rep.ID)
		if len(holders) == 0 {
			return fmt.Errorf("key %s has no holder", rep.ID)
		}
		s.keys = append(s.keys, solveKey{
			body:   fmt.Appendf(nil, `{"id":%q,"nrhs":%d,"block":%d,"b":%s}`, rep.ID, solveNRHS, luBlock, bjs),
			want:   want,
			holder: s.c.Shard(holders[0]).URL(),
		})
	}
	// Warm-up: every key twice, each reply compared with its reference.
	for i := 0; i < 2*solveKeys; i++ {
		if op := s.solveOp(i%solveKeys, false, time.Now()); !op.ok {
			return fmt.Errorf("warm-up solve of key %d does not match the in-process reference", i%solveKeys)
		}
	}
	return nil
}

func (s *serveWorkload) close() {
	if s.client != nil {
		s.client.CloseIdleConnections()
		s.client = nil
	}
	if s.c != nil {
		s.c.Close()
		s.c = nil
	}
}

// serveOp is what the client saw of one request.
type serveOp struct {
	due, sent, done time.Time
	wait, span      float64 // the engine's own times, from the reply
	reqB, respB     int
	direct          bool // sent to a shard, bypassing the router
	traced          bool
	ok, checked     bool
}

func (o *serveOp) rtt() float64 { return o.done.Sub(o.sent).Seconds() }

// factorOp posts matrix i of the pool, through the router or directly to
// a shard under a benchmark-chosen id.
func (s *serveWorkload) factorOp(i int, direct bool) serveOp {
	k := i % serveBodies
	url, head := s.c.URL(), []byte("{")
	if direct {
		names := s.c.Names()
		url = s.c.Shard(names[i%len(names)]).URL()
		head = fmt.Appendf(nil, `{"id":"direct-%d",`, i)
	}
	op := serveOp{direct: direct, reqB: len(head) + len(s.tails[k])}
	status, body, sent, done, err := s.post(url+"/v1/factor", head, s.tails[k])
	op.due, op.sent, op.done, op.respB = sent, sent, done, len(body)
	var rep reply
	if err != nil || status != http.StatusOK || json.Unmarshal(body, &rep) != nil || rep.ID == "" {
		return op
	}
	op.ok, op.wait, op.span = true, rep.QueueWaitMs/1e3, rep.SpanMs/1e3
	if !direct && i%serveCheckEvery == 0 {
		bjs, _ := json.Marshal(s.rhs[k])
		status, body, _, _, err := s.post(s.c.URL()+"/v1/solve", fmt.Appendf(nil, `{"id":%q,"block":%d,"b":%s}`, rep.ID, luBlock, bjs))
		var sol reply
		op.checked = true
		op.ok = err == nil && status == http.StatusOK && json.Unmarshal(body, &sol) == nil &&
			len(sol.X) == serveN && core.SolveResidual(s.mats[k], sol.X, s.rhs[k]) <= solveTol
	}
	return op
}

// solveOp posts the solve of key k; the reply must contain the
// in-process reference byte for byte.
func (s *serveWorkload) solveOp(k int, direct bool, due time.Time) serveOp {
	key := s.keys[k]
	url := s.c.URL()
	if direct {
		url = key.holder
	}
	op := serveOp{due: due, direct: direct, reqB: len(key.body), checked: true}
	status, body, sent, done, err := s.post(url+"/v1/solve", key.body)
	op.sent, op.done, op.respB = sent, done, len(body)
	if err != nil || status != http.StatusOK || !bytes.Contains(body, key.want) {
		return op
	}
	op.ok = true
	// The engine's times sit behind the solution block in the reply.
	var rep struct {
		QueueWaitMs float64 `json:"queueWaitMs"`
		SpanMs      float64 `json:"spanMs"`
	}
	if json.Unmarshal(body, &rep) == nil {
		op.wait, op.span = rep.QueueWaitMs/1e3, rep.SpanMs/1e3
	}
	return op
}

func (s *serveWorkload) measure(window time.Duration, rec *recorder, layer values) (*sample, error) {
	evict0 := s.evictions()
	var mu sync.Mutex
	var ops []serveOp
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	interval := time.Duration(float64(time.Second) / solveRate)
	total := int64(window/interval) + 1
	// In a traced pass every second request is traced, and every second
	// traced request goes directly to a shard: routed minus direct is
	// what the router's hop costs.
	plan := func(i int64) (traced, direct bool) {
		return rec != nil && i%2 == 1, rec != nil && i%4 == 3
	}
	// The key sequence is drawn up front: rand.Zipf is not safe for
	// concurrent use, and the draw belongs to the input, not the clock.
	var draw []int
	if s.solve {
		for i := int64(0); i < total; i++ {
			draw = append(draw, int(s.draws.Uint64()))
		}
	}
	// A closed-loop client runs until its own requests fill the window:
	// its clock stops during the checking solve, so ops_per_s does not
	// depend on the solve path or the checker's speed.
	clocks := make([]time.Duration, loadWidth())
	for c := range clocks {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				traced, direct := plan(i)
				var op serveOp
				if s.solve {
					if i >= total {
						return
					}
					due := t0.Add(time.Duration(i) * interval)
					// A sleeping goroutine wakes up to a millisecond
					// late; the last stretch is spent yielding.
					time.Sleep(time.Until(due) - 1500*time.Microsecond)
					for time.Now().Before(due) {
						runtime.Gosched()
					}
					op = s.solveOp(draw[i], direct, due)
				} else {
					// A traced pass needs a plain, a routed and a direct
					// request however short the window.
					// The wall-clock cap ends a run whose requests fail fast.
					if (clocks[c] >= window || time.Since(t0) >= 2*window) && (rec == nil || i >= 4) {
						return
					}
					op = s.factorOp(int(s.sent.Add(1)-1), direct)
					clocks[c] += op.done.Sub(op.sent)
				}
				op.traced = traced
				mu.Lock()
				ops = append(ops, op)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	smp := &sample{elapsed: time.Since(t0).Seconds(), attempted: len(ops), open: s.solve}
	if !s.solve {
		smp.elapsed = meanSeconds(clocks)
	}
	flops := luFlops(serveN, serveN)
	if s.solve {
		flops = solveFlops(serveN, solveNRHS)
	}
	for _, op := range ops {
		if op.checked {
			smp.checked++
		}
		if !op.ok {
			smp.failed++
			continue
		}
		lat := op.done.Sub(op.due).Seconds()
		if s.solve {
			smp.late = append(smp.late, op.sent.Sub(op.due).Seconds())
		}
		switch {
		case op.direct:
			// A direct request is a measuring device, not an op.
		case op.traced:
			smp.latTraced = append(smp.latTraced, lat)
		default:
			smp.lat = append(smp.lat, lat)
			smp.flops += flops
			if !s.solve || lat <= solveLimit.Seconds() {
				smp.within++
			}
		}
	}
	if rec != nil {
		s.report(rec, layer, ops, s.evictions()-evict0)
	}
	return smp, nil
}

func (s *serveWorkload) evictions() int64 {
	var n int64
	for _, name := range s.c.Names() {
		n += s.c.Shard(name).Server.Store().Stats().Evictions
	}
	return n
}

// report turns the traced requests into spans and per-layer values. A
// routed request shows the router's round trip; inside it sits a
// computed serve.direct span as long as the median direct round trip
// measured alongside, and inside that the engine's wait and span from
// the reply. What is left at each level is that layer's self time.
func (s *serveWorkload) report(rec *recorder, layer values, ops []serveOp, evicted int64) {
	var routed, direct, self, wait, span []float64
	reqB, respB, n := 0, 0, 0
	for _, op := range ops {
		if !op.ok || !op.traced {
			continue
		}
		if op.direct {
			direct = append(direct, op.rtt())
			self = append(self, op.rtt()-op.wait-op.span)
		} else {
			routed = append(routed, op.rtt())
			reqB, respB, n = reqB+op.reqB, respB+op.respB, n+1
		}
		wait, span = append(wait, op.wait), append(span, op.span)
	}
	directRTT := median(direct)
	// The factor path also exports the new factorization from its owner
	// and imports it on the replica; the probes' encode and decode
	// times stand in for both.
	wireEnc, wireDec := 0.0, 0.0
	if !s.solve {
		wireEnc, wireDec = layer["cluster.wire_encode_s"], layer["cluster.wire_decode_s"]
	}
	for _, op := range ops {
		if !op.ok || !op.traced {
			continue
		}
		id := rec.newOp()
		parent := rec.real(id, -1, "client.op", op.due, op.done)
		sent, done := rec.at(op.sent), rec.at(op.done)
		if !op.direct {
			parent = rec.add(id, parent, "cluster.routed", sent, done, 1, false)
			sent += max(done-sent-directRTT-wireEnc-wireDec, 0) / 2
			done = sent + directRTT
			if !s.solve {
				rec.add(id, parent, "cluster.wire_encode", done, done+wireEnc, 1, true)
				rec.add(id, parent, "cluster.wire_decode", done+wireEnc, done+wireEnc+wireDec, 1, true)
			}
		}
		srv := rec.add(id, parent, "serve.direct", sent, done, 1, !op.direct)
		mid := (sent + done - op.wait - op.span) / 2
		rec.add(id, srv, "engine.wait", mid, mid+op.wait, 1, true)
		rec.add(id, srv, "engine.span", mid+op.wait, mid+op.wait+op.span, 1, true)
	}

	layer["engine.queue_wait_s_p50"] = median(wait)
	layer["engine.span_s_p50"] = median(span)
	layer["serve.req_mb"] = float64(reqB) / float64(max(n, 1)) / 1e6
	layer["serve.resp_mb"] = float64(respB) / float64(max(n, 1)) / 1e6
	layer["serve.store_evictions"] = float64(evicted)
	selfName, routeName := "serve.factor_self_s_p50", "cluster.factor_route_self_s_p50"
	if s.solve {
		selfName, routeName = "serve.solve_self_s_p50", "cluster.route_self_s_p50"
	}
	layer[selfName] = median(self)
	layer[routeName] = median(routed) - directRTT

	// The router's own counters, over its public stats endpoint.
	resp, err := s.client.Get(s.c.URL() + "/v1/stats")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var st struct {
		Failovers        float64 `json:"failovers"`
		ReplicationLagMs float64 `json:"replicationLagMs"`
	}
	if json.NewDecoder(resp.Body).Decode(&st) == nil {
		layer["cluster.failovers"] = st.Failovers
		layer["cluster.replicate_lag_s"] = st.ReplicationLagMs / 1e3
	}
}
