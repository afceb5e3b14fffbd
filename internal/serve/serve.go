// Package serve is the engine shard server: the HTTP/JSON surface that
// cmd/hsdserve listens on and that the cluster router places work on.
// One Server wraps one resident engine plus an LRU keep-store of
// completed factorizations, and exposes:
//
//   - the data plane — /v1/factor, /v1/cholesky, /v1/solve,
//     /v1/cholesky/solve, /v1/stats — with the two-lane admission of
//     internal/engine (429 saturation, 503 for a deadline that passes
//     before the job starts, 422 degraded solves with the solvable
//     prefix);
//   - the cluster admin plane — /v1/admin/export and /v1/admin/import
//     move serialized factorizations between shards for replication and
//     drain migration, /v1/admin/drain flips the shard into draining
//     (new jobs 503, inflight finishes, readiness false);
//   - health — /healthz (process up) and /readyz (engine open and not
//     draining), which probes and load balancers key off.
//
// Every route is built from the request guards the router shares
// (cluster.Get, PostJSON, PostBytes): wrong method 405, wrong
// Content-Type 415, oversized body 413, trailing data after the JSON
// value 400 — all before a handler runs. A body is read once at its
// declared size, and the matrix of a factor request (data) or the
// right-hand side of a solve (b) is parsed in one pass (cluster.Bulk).
// Handlers receive the decoded request (or the capped bytes) as a
// parameter and never read r.Body.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/layout"
	"repro/internal/mat"
)

// DefaultMaxBody caps request bodies (a 2048x2048 JSON matrix is
// ~90 MB; we stop well before a streaming client can grow memory
// without bound).
const DefaultMaxBody = 256 << 20

// MaxBlocks bounds the block grid of one job: a factor request's matrix,
// or the stored factorization a solve runs over, cut at the request's
// block size. It is not an option. A CALU graph's edges grow with the
// cube of its blocks per side (n = 256 at block 1 builds 11.2 M edges
// and allocates 694 MB) and a solve graph's tasks with their square, so
// without a bound a 20-byte body naming block 1 buys gigabytes. 1<<15
// admits every generated matrix the default body cap allows at the
// default block: n = 5 792 at b = 32 is a 181 x 181 grid.
const MaxBlocks = 1 << 15

// checkBlockGrid refuses a rows x cols job (both >= 1) at block b
// (<= 0 is core.DefaultBlock) whose grid holds more than MaxBlocks
// blocks.
func checkBlockGrid(rows, cols, b int) error {
	if b <= 0 {
		b = core.DefaultBlock
	}
	mb, nb := (rows-1)/b+1, (cols-1)/b+1
	if mb > MaxBlocks/nb {
		return fmt.Errorf("block %d cuts the %dx%d matrix into a %dx%d block grid, over the %d-block limit",
			b, rows, cols, mb, nb, MaxBlocks)
	}
	return nil
}

// Options configures a Server around an engine.
type Options struct {
	// Keep is the resident-factorization count bound (clamped >= 1).
	Keep int
	// MaxBody caps request bodies; <= 0 selects DefaultMaxBody.
	MaxBody int64
	// MemBudget bounds resident factorization bytes; 0 = unbounded.
	MemBudget int64
	// TTL expires idle resident factorizations; 0 = never.
	TTL time.Duration
}

// Server wires one engine to the HTTP mux and owns its keep-store.
type Server struct {
	eng      *engine.Engine
	store    *engine.Store
	maxBody  int64
	draining atomic.Bool
}

// New builds a Server. The caller keeps ownership of the engine (and
// closes it).
func New(eng *engine.Engine, opt Options) *Server {
	if opt.MaxBody <= 0 {
		opt.MaxBody = DefaultMaxBody
	}
	return &Server{
		eng:     eng,
		maxBody: opt.MaxBody,
		store: engine.NewStore(engine.StoreOptions{
			Keep: opt.Keep, MemBudget: opt.MemBudget, TTL: opt.TTL,
		}),
	}
}

// Store exposes the keep-store (tests and admin tooling).
func (s *Server) Store() *engine.Store { return s.store }

// Draining reports whether the shard has been told to drain.
func (s *Server) Draining() bool { return s.draining.Load() }

type factorRequest struct {
	// ID, when set, stores the factorization under an explicit id —
	// the cluster router assigns cluster-wide keys this way. Empty
	// picks a generated local id.
	ID string `json:"id"`

	// Either a generated test matrix ...
	N    int   `json:"n"`
	Seed int64 `json:"seed"`
	// ... or caller-supplied data (row-major, rows*cols entries).
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	Data []float64 `json:"data"`

	Block        int     `json:"block"`
	Workers      int     `json:"workers"`
	Scheduler    string  `json:"scheduler"`
	Layout       string  `json:"layout"`
	DynamicRatio float64 `json:"dynamicRatio"`
	// Class routes the job in the engine's two-lane admission: "auto"
	// (default), "small" or "large".
	Class string `json:"class"`
	// DeadlineMs bounds the request's context, counted from when the
	// shard has read the request: a job still queued when it passes is
	// withdrawn and the reply is 503. A job that has started runs to
	// completion. 0 means no deadline.
	DeadlineMs float64 `json:"deadlineMs"`
	// Residual requests the O(n^3) backward-error check in the reply.
	Residual bool `json:"residual"`
}

// BulkMember names data as the request's bulk (cluster.Bulk).
func (r *factorRequest) BulkMember() (string, *[]float64) { return "data", &r.Data }

type factorReply struct {
	ID          string   `json:"id"`
	Class       string   `json:"class"`
	Granted     int      `json:"granted"`
	QueueWaitMs float64  `json:"queueWaitMs"`
	SpanMs      float64  `json:"spanMs"`
	Residual    *float64 `json:"residual,omitempty"`
}

type solveRequest struct {
	ID string `json:"id"`
	// B is the right-hand side: n entries for one system, n*nrhs
	// entries (column-major) when NRHS > 1.
	B    []float64 `json:"b"`
	NRHS int       `json:"nrhs"`

	Block        int     `json:"block"`
	Workers      int     `json:"workers"`
	Scheduler    string  `json:"scheduler"`
	DynamicRatio float64 `json:"dynamicRatio"`
	Class        string  `json:"class"`
	DeadlineMs   float64 `json:"deadlineMs"` // as factorRequest.DeadlineMs
}

// BulkMember names b as the request's bulk (cluster.Bulk).
func (r *solveRequest) BulkMember() (string, *[]float64) { return "b", &r.B }

type solveReply struct {
	ID string `json:"id"`
	// X is the solution, column-major n x nrhs.
	X           []float64 `json:"x"`
	NRHS        int       `json:"nrhs"`
	Class       string    `json:"class"`
	Granted     int       `json:"granted"`
	QueueWaitMs float64   `json:"queueWaitMs"`
	SpanMs      float64   `json:"spanMs"`
}

// schedulerOptions resolves the request's scheduler name; a hybrid job
// that names no ratio gets the paper's usual 10% dynamic.
func schedulerOptions(name string, opt *core.Options) (err error) {
	if opt.Scheduler, err = core.ParseScheduler(name); err != nil {
		return err
	}
	if opt.Scheduler == core.ScheduleHybrid && opt.DynamicRatio == 0 {
		opt.DynamicRatio = 0.1
	}
	return nil
}

// classOptions maps the request's class onto Options and checks its
// deadline.
func classOptions(class string, deadlineMs float64, opt *core.Options) error {
	switch strings.ToLower(class) {
	case "", "auto":
		opt.Class = core.ClassAuto
	case "small":
		opt.Class = core.ClassSmall
	case "large", "big":
		opt.Class = core.ClassLarge
	default:
		return fmt.Errorf("unknown class %q (use auto, small or large)", class)
	}
	if deadlineMs < 0 {
		return fmt.Errorf("deadlineMs must be >= 0, got %g", deadlineMs)
	}
	return nil
}

// deadline is the request's context, bounded by its deadlineMs when
// that is set; the engine withdraws a job still queued when it ends.
func deadline(r *http.Request, ms float64) (context.Context, context.CancelFunc) {
	if ms == 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), time.Duration(ms*float64(time.Millisecond)))
}

func (s *Server) options(req *factorRequest) (core.Options, error) {
	opt := core.Options{
		Block:        req.Block,
		Workers:      req.Workers,
		DynamicRatio: req.DynamicRatio,
		Seed:         req.Seed,
	}
	var err error
	if opt.Layout, err = layout.ParseKind(req.Layout); err != nil {
		return opt, err
	}
	if err := schedulerOptions(req.Scheduler, &opt); err != nil {
		return opt, err
	}
	if err := classOptions(req.Class, req.DeadlineMs, &opt); err != nil {
		return opt, err
	}
	return opt, nil
}

// factorKind is everything that distinguishes one factorization
// endpoint from another.
type factorKind struct {
	// prefix starts the generated ids of stored results.
	prefix string
	// random generates the n x n test matrix of a request without data.
	random func(n int, seed int64) *mat.Dense
	// work wraps the input matrix as the engine job.
	work func(*mat.Dense) engine.Work
}

var (
	luKind = factorKind{"f", func(n int, seed int64) *mat.Dense {
		return mat.Random(n, n, rand.New(rand.NewSource(seed)))
	}, engine.FactorWork}
	cholKind = factorKind{"c", core.RandomSPD, engine.CholeskyWork}
)

// isCholesky is the stored-factorization screen of /v1/cholesky/solve.
func isCholesky(k engine.Kept) bool { return k.Chol != nil }

// matrix materializes the request's input matrix, generated by random
// when the request carries no data. Its shape is checked against the
// body cap and MaxBlocks before anything is allocated.
func (s *Server) matrix(req *factorRequest, random func(n int, seed int64) *mat.Dense) (*mat.Dense, error) {
	if len(req.Data) > 0 {
		// rows and cols are request input: compare by division, their
		// product can wrap around to len(req.Data).
		if n := len(req.Data); req.Rows <= 0 || req.Cols <= 0 || n%req.Cols != 0 || n/req.Cols != req.Rows {
			return nil, fmt.Errorf("data needs rows*cols = %d*%d entries, got %d",
				req.Rows, req.Cols, len(req.Data))
		}
		if err := checkBlockGrid(req.Rows, req.Cols, req.Block); err != nil {
			return nil, err
		}
		return mat.FromRowMajor(req.Rows, req.Cols, req.Data), nil
	}
	if req.N <= 0 {
		return nil, fmt.Errorf("need either n > 0 or rows/cols/data")
	}
	// The body cap bounds explicit data; hold a generated matrix to the
	// same bytes, or 17 bytes of JSON buy an n*n*8 allocation (and an
	// O(n^3) generator) on the handler goroutine, outside admission.
	// Compared by division: n*n*8 can wrap.
	if n := int64(req.N); n > s.maxBody/8/n {
		return nil, fmt.Errorf("generated n=%d needs n*n*8 bytes, over the %d-byte request cap", req.N, s.maxBody)
	}
	if err := checkBlockGrid(req.N, req.N, req.Block); err != nil {
		return nil, err
	}
	return random(req.N, req.Seed), nil
}

// drainError is the 503 every job-creating endpoint returns once the
// shard is draining: the router reads it as "fail over".
func drainError(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	cluster.HTTPError(w, http.StatusServiceUnavailable, "shard draining, no new jobs")
}

// submitError maps an engine submission error to an HTTP reply: a
// deadline that passed before the job started is 503 (the request was
// refused for its deadline, not for load — retrying with a looser
// deadline can succeed), saturation is 429 so load balancers back off,
// anything else is the caller's fault. Part of the package's
// error-to-status table.
func submitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		w.Header().Set("Retry-After", "1")
		cluster.HTTPError(w, http.StatusServiceUnavailable, "deadline passed before the job started: %v", err)
	case errors.Is(err, engine.ErrSaturated):
		w.Header().Set("Retry-After", "1")
		cluster.HTTPError(w, http.StatusTooManyRequests, "engine saturated, retry later")
	default:
		cluster.HTTPError(w, http.StatusBadRequest, "%v", err)
	}
}

// jobError maps a job that failed after admission to its HTTP reply: a
// job withdrawn because its deadline passed gets submitError's 503, a
// singular system the typed 422 carrying how much of the system is
// still solvable, anything else a plain 422 naming what failed. Part of
// the package's error-to-status table.
func jobError(w http.ResponseWriter, err error, what string) {
	var se *core.SingularSolveError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		submitError(w, err)
	case errors.As(err, &se):
		cluster.WriteJSON(w, http.StatusUnprocessableEntity, map[string]any{
			"error":          err.Error(),
			"solvablePrefix": se.Prefix,
			"n":              se.N,
			"degradedSystem": true,
		})
	default:
		cluster.HTTPError(w, http.StatusUnprocessableEntity, "%s failed: %v", what, err)
	}
}

// handleFactor serves one factorization endpoint: build the matrix, run
// the kind's work on the engine, keep the result. The router names the
// key it assigned as ?id= and forwards the client's body untouched, so
// a body that carries an id as well is refused here; a direct request
// may name its id in the body.
func (s *Server) handleFactor(w http.ResponseWriter, r *http.Request, req *factorRequest, kind factorKind) {
	if s.draining.Load() {
		drainError(w)
		return
	}
	if id := r.URL.Query().Get("id"); id != "" {
		if req.ID != "" {
			cluster.HTTPError(w, http.StatusBadRequest, "id is router-assigned; do not supply one")
			return
		}
		req.ID = id
	}
	opt, err := s.options(req)
	if err != nil {
		cluster.HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel := deadline(r, req.DeadlineMs)
	defer cancel()
	a, err := s.matrix(req, kind.random)
	if err != nil {
		cluster.HTTPError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	// The request context rides along so a queued job is withdrawn when
	// its client disconnects or its deadline passes.
	job, err := s.eng.TrySubmit(ctx, kind.work(a), opt)
	if err != nil {
		submitError(w, err)
		return
	}
	if err := job.Wait(); err != nil {
		jobError(w, err, "factorization")
		return
	}
	k := engine.KeptOf(job.Result())
	id := req.ID
	if id != "" {
		s.store.PutAs(id, k)
	} else {
		id = s.store.Put(kind.prefix, k)
	}
	rep := factorReply{
		ID:          id,
		Class:       job.Class().String(),
		Granted:     job.Granted(),
		QueueWaitMs: job.QueueWait().Seconds() * 1e3,
		SpanMs:      job.Span().Seconds() * 1e3,
	}
	if req.Residual {
		res := k.Residual(a)
		rep.Residual = &res
	}
	cluster.WriteJSON(w, http.StatusOK, rep)
}

// handleSolve serves one solve endpoint over the stored factorizations
// it accepts; want names them in the 400 for any other.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request, req *solveRequest, want string, accepts func(engine.Kept) bool) {
	if s.draining.Load() {
		drainError(w)
		return
	}
	k, ok := s.store.Get(req.ID)
	if !ok {
		cluster.HTTPError(w, http.StatusNotFound, "no factorization %q (evicted or never existed)", req.ID)
		return
	}
	if !accepts(k) {
		cluster.HTTPError(w, http.StatusBadRequest, "%q is not a %s factorization", req.ID, want)
		return
	}
	n := k.N()
	if err := checkBlockGrid(n, n, req.Block); err != nil {
		cluster.HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	nrhs := req.NRHS
	if nrhs <= 0 {
		nrhs = 1
	}
	// nrhs > len(B) is always invalid (n >= 1) and, checked first, keeps
	// the n*nrhs product far from integer overflow for any body that
	// fits the request size cap.
	if nrhs > len(req.B) || len(req.B) != n*nrhs {
		cluster.HTTPError(w, http.StatusBadRequest, "rhs needs n*nrhs = %d*%d entries, got %d", n, nrhs, len(req.B))
		return
	}
	opt := core.Options{Block: req.Block, Workers: req.Workers, DynamicRatio: req.DynamicRatio}
	if err := schedulerOptions(req.Scheduler, &opt); err != nil {
		cluster.HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := classOptions(req.Class, req.DeadlineMs, &opt); err != nil {
		cluster.HTTPError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel := deadline(r, req.DeadlineMs)
	defer cancel()
	// B is column-major n x nrhs already, and the solve does not write it.
	bm := mat.FromColMajor(n, nrhs, n, req.B)
	job, err := s.eng.TrySubmit(ctx, engine.SolveWork(k.Solvable(), bm), opt)
	if err != nil {
		submitError(w, err)
		return
	}
	if err := job.Wait(); err != nil {
		jobError(w, err, "solve")
		return
	}
	// The solution block is tightly strided (mat.New), so its backing
	// array IS the column-major flat reply — no copy on the hot path.
	x := job.SolutionMatrix()
	cluster.WriteJSON(w, http.StatusOK, solveReply{
		ID: req.ID, X: x.Data, NRHS: nrhs,
		Class:       job.Class().String(),
		Granted:     job.Granted(),
		QueueWaitMs: job.QueueWait().Seconds() * 1e3,
		SpanMs:      job.Span().Seconds() * 1e3,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.store.Stats()
	cluster.WriteJSON(w, http.StatusOK, map[string]any{
		"engine":   s.eng.Stats(),
		"draining": s.draining.Load(),
		"store": map[string]any{
			"count":       st.Count,
			"bytes":       st.Bytes,
			"budgetBytes": st.BudgetBytes,
			"keep":        st.Keep,
			"ttlMs":       st.TTL.Seconds() * 1e3,
			"evictions":   st.Evictions,
			"expiries":    st.Expiries,
			"imports":     st.Imports,
		},
	})
}

// handleHealthz answers as long as the process serves requests at all.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

// handleReadyz reports readiness for new work: the engine is open and
// the shard is not draining.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.draining.Load():
		cluster.HTTPError(w, http.StatusServiceUnavailable, "draining")
	case s.eng.Stats().Closed:
		cluster.HTTPError(w, http.StatusServiceUnavailable, "engine closed")
	default:
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ready\n")
	}
}

// handleExport serves /v1/admin/export: with ?id= it streams the
// serialized factorization (the unit of replication and migration);
// without, it lists resident ids as JSON.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		cluster.WriteJSON(w, http.StatusOK, map[string]any{"ids": s.store.IDs()})
		return
	}
	k, ok := s.store.Get(id)
	if !ok {
		cluster.HTTPError(w, http.StatusNotFound, "no factorization %q (evicted or never existed)", id)
		return
	}
	wire, err := cluster.EncodeFactorization(k.LU, k.Chol)
	if err != nil {
		cluster.HTTPError(w, http.StatusInternalServerError, "encode %q: %v", id, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(len(wire)))
	w.Write(wire)
}

// handleImport serves /v1/admin/import?id=...: the body is the wire
// encoding of a factorization, stored under the given id. This is how
// replicas and migration targets receive kept state.
func (s *Server) handleImport(w http.ResponseWriter, r *http.Request, body []byte) {
	if s.draining.Load() {
		drainError(w)
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		cluster.HTTPError(w, http.StatusBadRequest, "missing id query parameter")
		return
	}
	lu, chol, err := cluster.DecodeFactorization(body)
	if err != nil {
		cluster.HTTPError(w, http.StatusBadRequest, "bad factorization payload: %v", err)
		return
	}
	s.store.PutAs(id, engine.Kept{LU: lu, Chol: chol})
	cluster.WriteJSON(w, http.StatusOK, map[string]string{"imported": id})
}

// handleDrain serves /v1/admin/drain: the shard stops accepting new
// jobs (factor, solve and import all 503), finishes what is inflight,
// and reports not-ready. Idempotent.
func (s *Server) handleDrain(w http.ResponseWriter, _ *http.Request, _ *struct{}) {
	s.draining.Store(true)
	cluster.WriteJSON(w, http.StatusOK, map[string]bool{"draining": true})
}

// Handler builds the route table: every route behind one of the request
// guards, so the method, Content-Type, size and single-value checks are
// not the handlers' to forget.
func (s *Server) Handler() *http.ServeMux {
	factor := func(kind factorKind) http.HandlerFunc {
		return cluster.PostJSON(s.maxBody, func(w http.ResponseWriter, r *http.Request, req *factorRequest) {
			s.handleFactor(w, r, req, kind)
		})
	}
	solve := func(want string, accepts func(engine.Kept) bool) http.HandlerFunc {
		return cluster.PostJSON(s.maxBody, func(w http.ResponseWriter, r *http.Request, req *solveRequest) {
			s.handleSolve(w, r, req, want, accepts)
		})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/factor", factor(luKind))
	mux.HandleFunc("/v1/cholesky", factor(cholKind))
	// /v1/solve serves whatever the store holds: a stored Kept is Valid.
	mux.HandleFunc("/v1/solve", solve("stored", engine.Kept.Valid))
	mux.HandleFunc("/v1/cholesky/solve", solve("cholesky", isCholesky))
	mux.HandleFunc("/v1/stats", cluster.Get(s.handleStats))
	mux.HandleFunc("/v1/admin/export", cluster.Get(s.handleExport))
	mux.HandleFunc("/v1/admin/import", cluster.PostBytes("application/octet-stream", s.maxBody, s.handleImport))
	mux.HandleFunc("/v1/admin/drain", cluster.PostJSON(s.maxBody, s.handleDrain))
	mux.HandleFunc("/healthz", cluster.Get(s.handleHealthz))
	mux.HandleFunc("/readyz", cluster.Get(s.handleReadyz))
	return mux
}
