// Command hsdserve exposes the resident factorization engine over
// HTTP/JSON: one long-lived worker pool serving concurrent Factor and
// Solve requests on internal/engine (static per-job worker
// reservations, the paper's hybrid static/dynamic scheduling inside
// each job). Every job runs the paper's recommended schedule — the BCL
// layout, the hybrid scheduler with 10% of the block columns dynamic —
// at the request's block and workers; a request that names scheduler,
// layout, dynamicRatio or class is a 400. Admission is two first-in
// first-out lanes, chosen by the job's flop count: small jobs ride an
// express lane, served first, with a one-worker default share; big jobs
// start when it is empty. A request's deadlineMs bounds its context: a
// job still queued when it passes is withdrawn with a 503.
//
//	hsdserve -addr :8080 -pool 8 -maxinflight 32
//
// Factor a random 512x512 test matrix with a 2-worker share and keep
// the factorization resident for later solves:
//
//	curl -s localhost:8080/v1/factor -H 'Content-Type: application/json' \
//	    -d '{"n":512,"seed":7,"workers":2}'
//
// Factor a caller-supplied matrix (row-major flat array), kept as f-2,
// and solve against it, single or many right-hand sides (column-major
// flat, nrhs columns):
//
//	curl -s localhost:8080/v1/factor -H 'Content-Type: application/json' \
//	    -d '{"rows":2,"cols":2,"data":[4,3,6,3],"residual":true}'
//	curl -s localhost:8080/v1/solve -H 'Content-Type: application/json' \
//	    -d '{"id":"f-2","b":[10,12]}'
//
// Cholesky jobs ride the same pool via /v1/cholesky and
// /v1/cholesky/solve; /v1/stats reports engine, class and store
// snapshots. The full endpoint semantics — traffic classes, deadlines,
// 405/413/415/422/429/503 behaviour, the cluster admin plane
// (/v1/admin/export, /v1/admin/import, /v1/admin/drain) and the
// /healthz and /readyz probes — live in internal/serve; this binary
// only parses flags, owns the engine and handles signals: SIGINT or
// SIGTERM starts a graceful shutdown that stops accepting connections,
// waits up to -shutdown for inflight requests, then closes the engine.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/engine"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	pool := flag.Int("pool", 0, "resident worker pool size (0 = NumCPU)")
	maxInflight := flag.Int("maxinflight", 0, "admission bound (0 = 4*pool)")
	keep := flag.Int("keep", 64, "factorizations kept resident for /v1/solve (>= 1)")
	maxBody := flag.Int64("maxbody", serve.DefaultMaxBody, "request body cap in bytes")
	memBudget := flag.Int64("membudget", 0, "resident factorization memory budget in bytes (0 = unbounded)")
	shutdown := flag.Duration("shutdown", 30*time.Second, "graceful-shutdown deadline for inflight requests")
	flag.Parse()
	if *keep < 1 {
		fmt.Fprintf(os.Stderr, "hsdserve: -keep must be >= 1 (every /v1/factor reply references a kept factorization)\n")
		os.Exit(2)
	}
	if *maxBody < 1 {
		fmt.Fprintf(os.Stderr, "hsdserve: -maxbody must be >= 1\n")
		os.Exit(2)
	}

	eng, err := engine.New(engine.Options{Workers: *pool, MaxInflight: *maxInflight})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hsdserve: %v\n", err)
		os.Exit(2)
	}

	s := serve.New(eng, serve.Options{
		Keep: *keep, MaxBody: *maxBody, MemBudget: *memBudget,
	})
	log.Printf("hsdserve: engine up (%+v), listening on %s", eng.Stats(), *addr)
	serve.ListenAndServe(context.Background(), "hsdserve", *addr, s.Handler(), *shutdown, eng.Close)
	log.Printf("hsdserve: engine closed, bye")
}
