// Package serve is the engine shard server: the HTTP/JSON surface that
// cmd/hsdserve listens on and that the cluster router places work on.
// One Server wraps one resident engine plus an LRU keep-store of
// completed factorizations, and exposes:
//
//   - the data plane — /v1/factor, /v1/cholesky, /v1/solve,
//     /v1/cholesky/solve, /v1/stats — with the traffic-shaped admission
//     semantics of internal/engine (429 saturation, 503 shed deadlines,
//     422 degraded solves with the solvable prefix);
//   - the cluster admin plane — /v1/admin/export and /v1/admin/import
//     move serialized factorizations between shards for replication and
//     drain migration, /v1/admin/drain flips the shard into draining
//     (new jobs 503, inflight finishes, readiness false);
//   - health — /healthz (process up) and /readyz (engine open and not
//     draining), which probes and load balancers key off.
//
// Mutating endpoints are POST-only (405 otherwise), require a matching
// Content-Type when one is sent (415), cap bodies (413) and reject
// trailing data after the JSON value (400).
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"mime"
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
	// DeadlineMs is the submit-relative SLO; jobs the engine estimates
	// cannot meet it are shed with 503. 0 means no deadline.
	DeadlineMs float64 `json:"deadlineMs"`
	// Residual requests the O(n^3) backward-error check in the reply.
	Residual bool `json:"residual"`
}

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
	DeadlineMs   float64 `json:"deadlineMs"`
}

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

func schedulerOptions(name string, opt *core.Options) error {
	switch strings.ToLower(name) {
	case "", "hybrid":
		opt.Scheduler = core.ScheduleHybrid
		if opt.DynamicRatio == 0 {
			opt.DynamicRatio = 0.1
		}
	case "static":
		opt.Scheduler = core.ScheduleStatic
	case "dynamic":
		opt.Scheduler = core.ScheduleDynamic
	case "worksteal":
		opt.Scheduler = core.ScheduleWorkStealing
	default:
		return fmt.Errorf("unknown scheduler %q", name)
	}
	return nil
}

// classOptions maps the request's traffic-shaping fields onto Options.
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
	opt.Deadline = time.Duration(deadlineMs * float64(time.Millisecond))
	return nil
}

func (s *Server) options(req *factorRequest) (core.Options, error) {
	opt := core.Options{
		Block:        req.Block,
		Workers:      req.Workers,
		DynamicRatio: req.DynamicRatio,
		Seed:         req.Seed,
	}
	switch strings.ToLower(req.Layout) {
	case "", "bcl":
		opt.Layout = layout.BCL
	case "cm":
		opt.Layout = layout.CM
	case "2l", "2l-bl", "twolevel":
		opt.Layout = layout.TwoLevel
	default:
		return opt, fmt.Errorf("unknown layout %q", req.Layout)
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
// when the request carries no data.
func (s *Server) matrix(req *factorRequest, random func(n int, seed int64) *mat.Dense) (*mat.Dense, error) {
	if len(req.Data) > 0 {
		// rows and cols are request input: compare by division, their
		// product can wrap around to len(req.Data).
		if n := len(req.Data); req.Rows <= 0 || req.Cols <= 0 || n%req.Cols != 0 || n/req.Cols != req.Rows {
			return nil, fmt.Errorf("data needs rows*cols = %d*%d entries, got %d",
				req.Rows, req.Cols, len(req.Data))
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
	return random(req.N, req.Seed), nil
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// drainError is the 503 every job-creating endpoint returns once the
// shard is draining: the router reads it as "fail over".
func drainError(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusServiceUnavailable, "shard draining, no new jobs")
}

// decodePost guards a mutating endpoint: POST only (405 otherwise), a
// JSON Content-Type when one is sent (415 otherwise — a body that is
// not JSON was almost certainly not meant for this API), the body
// capped at maxBody (413) and exactly one JSON value in it — trailing
// garbage after the value (a second JSON document, stray bytes) is a
// malformed request, not something to silently ignore.
func (s *Server) decodePost(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		httpError(w, http.StatusMethodNotAllowed, "method %s not allowed, use POST", r.Method)
		return false
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		mt, _, err := mime.ParseMediaType(ct)
		if err != nil || mt != "application/json" {
			httpError(w, http.StatusUnsupportedMediaType,
				"unsupported Content-Type %q, use application/json", ct)
			return false
		}
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err := dec.Decode(v); err != nil {
		bodyError(w, err)
		return false
	}
	// Token (not More) is the complete trailing check: More reports
	// false for a stray closing bracket, while Token returns io.EOF
	// only when nothing but whitespace follows the value.
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		//hsd:allow errstatus io.EOF is the success condition here, not an error being mapped
		httpError(w, http.StatusBadRequest, "bad request: trailing data after JSON body")
		return false
	}
	return true
}

// bodyError maps a request-body read or decode error to its HTTP
// reply: an oversized body is 413 carrying the limit, anything else is
// the caller's 400. Part of the package's error-to-status table
// (//hsd:statusmap): hsdlint's errstatus analyzer keeps every
// errors.Is/As → 4xx/5xx mapping inside table functions like this one.
//
//hsd:statusmap
func bodyError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge,
			"request body exceeds %d bytes", tooBig.Limit)
		return
	}
	httpError(w, http.StatusBadRequest, "bad request: %v", err)
}

// submitError maps an engine submission error to an HTTP reply: a shed
// deadline is 503 (the request was refused for its SLO, not for load —
// retrying with a looser deadline can succeed), saturation is 429 so
// load balancers back off, anything else is the caller's fault. Part of
// the package's error-to-status table.
//
//hsd:statusmap
func submitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, engine.ErrDeadlineInfeasible):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, engine.ErrSaturated):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "engine saturated, retry later")
	default:
		httpError(w, http.StatusBadRequest, "%v", err)
	}
}

// solveError maps a failed solve job to its HTTP reply: a singular
// system gets the typed 422 carrying how much of the system is still
// solvable, anything else a plain 422. Part of the package's
// error-to-status table.
//
//hsd:statusmap
func solveError(w http.ResponseWriter, err error) {
	var se *core.SingularSolveError
	if errors.As(err, &se) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusUnprocessableEntity)
		json.NewEncoder(w).Encode(map[string]any{
			"error":          err.Error(),
			"solvablePrefix": se.Prefix,
			"n":              se.N,
			"degradedSystem": true,
		})
		return
	}
	httpError(w, http.StatusUnprocessableEntity, "solve failed: %v", err)
}

// handleFactor serves one factorization endpoint: decode, build the
// matrix, run the kind's work on the engine, keep the result.
func (s *Server) handleFactor(w http.ResponseWriter, r *http.Request, kind factorKind) {
	var req factorRequest
	if !s.decodePost(w, r, &req) {
		return
	}
	if s.draining.Load() {
		drainError(w)
		return
	}
	opt, err := s.options(&req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	a, err := s.matrix(&req, kind.random)
	if err != nil {
		bodyError(w, err)
		return
	}
	// The request context rides along so a queued job is withdrawn when
	// its client disconnects.
	job, err := s.eng.TrySubmit(r.Context(), kind.work(a), opt)
	if err != nil {
		submitError(w, err)
		return
	}
	if err := job.Wait(); err != nil {
		httpError(w, http.StatusUnprocessableEntity, "factorization failed: %v", err)
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
	reply(w, rep)
}

// handleSolve serves one solve endpoint over the stored factorizations
// it accepts; want names them in the 400 for any other.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request, want string, accepts func(engine.Kept) bool) {
	var req solveRequest
	if !s.decodePost(w, r, &req) {
		return
	}
	if s.draining.Load() {
		drainError(w)
		return
	}
	k, ok := s.store.Get(req.ID)
	if !ok {
		httpError(w, http.StatusNotFound, "no factorization %q (evicted or never existed)", req.ID)
		return
	}
	if !accepts(k) {
		httpError(w, http.StatusBadRequest, "%q is not a %s factorization", req.ID, want)
		return
	}
	n := k.N()
	nrhs := req.NRHS
	if nrhs <= 0 {
		nrhs = 1
	}
	// nrhs > len(B) is always invalid (n >= 1) and, checked first, keeps
	// the n*nrhs product far from integer overflow for any body that
	// fits the request size cap.
	if nrhs > len(req.B) || len(req.B) != n*nrhs {
		httpError(w, http.StatusBadRequest, "rhs needs n*nrhs = %d*%d entries, got %d", n, nrhs, len(req.B))
		return
	}
	opt := core.Options{Block: req.Block, Workers: req.Workers, DynamicRatio: req.DynamicRatio}
	if err := schedulerOptions(req.Scheduler, &opt); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := classOptions(req.Class, req.DeadlineMs, &opt); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	bm := mat.New(n, nrhs)
	copy(bm.Data, req.B)
	job, err := s.eng.TrySubmit(r.Context(), engine.SolveWork(k.Solvable(), bm), opt)
	if err != nil {
		submitError(w, err)
		return
	}
	if err := job.Wait(); err != nil {
		solveError(w, err)
		return
	}
	// The solution block is tightly strided (mat.New), so its backing
	// array IS the column-major flat reply — no copy on the hot path.
	x := job.SolutionMatrix()
	reply(w, solveReply{
		ID: req.ID, X: x.Data, NRHS: nrhs,
		Class:       job.Class().String(),
		Granted:     job.Granted(),
		QueueWaitMs: job.QueueWait().Seconds() * 1e3,
		SpanMs:      job.Span().Seconds() * 1e3,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		httpError(w, http.StatusMethodNotAllowed, "method %s not allowed, use GET", r.Method)
		return
	}
	st := s.store.Stats()
	reply(w, map[string]any{
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
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		httpError(w, http.StatusMethodNotAllowed, "method %s not allowed, use GET", r.Method)
		return
	}
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

// handleReadyz reports readiness for new work: the engine is open and
// the shard is not draining.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		httpError(w, http.StatusMethodNotAllowed, "method %s not allowed, use GET", r.Method)
		return
	}
	switch {
	case s.draining.Load():
		httpError(w, http.StatusServiceUnavailable, "draining")
	case s.eng.Stats().Closed:
		httpError(w, http.StatusServiceUnavailable, "engine closed")
	default:
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ready\n")
	}
}

// handleExport serves /v1/admin/export: with ?id= it streams the
// serialized factorization (the unit of replication and migration);
// without, it lists resident ids as JSON.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		httpError(w, http.StatusMethodNotAllowed, "method %s not allowed, use GET", r.Method)
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		reply(w, map[string]any{"ids": s.store.IDs()})
		return
	}
	k, ok := s.store.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no factorization %q (evicted or never existed)", id)
		return
	}
	wire, err := cluster.EncodeFactorization(k.LU, k.Chol)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encode %q: %v", id, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(len(wire)))
	w.Write(wire)
}

// handleImport serves /v1/admin/import?id=...: the body is the wire
// encoding of a factorization, stored under the given id. This is how
// replicas and migration targets receive kept state.
func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		httpError(w, http.StatusMethodNotAllowed, "method %s not allowed, use POST", r.Method)
		return
	}
	mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if err != nil || mt != "application/octet-stream" {
		httpError(w, http.StatusUnsupportedMediaType,
			"unsupported Content-Type, use application/octet-stream")
		return
	}
	if s.draining.Load() {
		drainError(w)
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		httpError(w, http.StatusBadRequest, "missing id query parameter")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		bodyError(w, err)
		return
	}
	lu, chol, err := cluster.DecodeFactorization(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad factorization payload: %v", err)
		return
	}
	s.store.PutAs(id, engine.Kept{LU: lu, Chol: chol})
	reply(w, map[string]string{"imported": id})
}

// handleDrain serves /v1/admin/drain: the shard stops accepting new
// jobs (factor, solve and import all 503), finishes what is inflight,
// and reports not-ready. Idempotent.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	var req struct{}
	if !s.decodePost(w, r, &req) {
		return
	}
	s.draining.Store(true)
	reply(w, map[string]bool{"draining": true})
}

// Handler builds the route table. Method checks live in the handlers
// (not in method-qualified patterns) so direct handler tests and the
// live server agree on 405 behaviour.
func (s *Server) Handler() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/factor", func(w http.ResponseWriter, r *http.Request) { s.handleFactor(w, r, luKind) })
	mux.HandleFunc("/v1/cholesky", func(w http.ResponseWriter, r *http.Request) { s.handleFactor(w, r, cholKind) })
	// /v1/solve serves whatever the store holds: a stored Kept is Valid.
	mux.HandleFunc("/v1/solve", func(w http.ResponseWriter, r *http.Request) { s.handleSolve(w, r, "stored", engine.Kept.Valid) })
	mux.HandleFunc("/v1/cholesky/solve", func(w http.ResponseWriter, r *http.Request) { s.handleSolve(w, r, "cholesky", isCholesky) })
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/admin/export", s.handleExport)
	mux.HandleFunc("/v1/admin/import", s.handleImport)
	mux.HandleFunc("/v1/admin/drain", s.handleDrain)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	return mux
}
