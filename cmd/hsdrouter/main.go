// Command hsdrouter is the cluster front door over a set of hsdserve
// engine shards: it consistent-hashes factorization keys onto shards,
// factors each key on its owner, streams the factorization to the
// other -replicas owners for solve read-scaling, and routes solves to
// any replica with failover. Health probes mark unreachable shards
// unhealthy; /v1/admin/join and /v1/admin/drain rebalance the ring and
// migrate the keys it reassigns. Clients speak a single hsdserve's
// /v1/factor, /v1/cholesky, /v1/solve and /v1/stats surface, except that the router assigns ids; README's "Cluster mode"
// has the rest.
//
//	hsdrouter -addr :8090 \
//	    -shards s1=http://10.0.0.1:8080,s2=http://10.0.0.2:8080,s3=http://10.0.0.3:8080 \
//	    -replicas 2 -probe 2s
//
//	curl -s localhost:8090/v1/admin/join -H 'Content-Type: application/json' \
//	    -d '{"name":"s4","url":"http://10.0.0.4:8080"}'
//	curl -s localhost:8090/v1/admin/drain -H 'Content-Type: application/json' \
//	    -d '{"name":"s2"}'
//
// SIGINT or SIGTERM starts a graceful shutdown: stop accepting
// connections, finish inflight requests (up to -shutdown), stop the
// probe loop.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

// parseShards turns "s1=http://host:port,s2=..." into ShardInfos.
func parseShards(spec string) ([]cluster.ShardInfo, error) {
	var out []cluster.ShardInfo
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("bad shard %q, want name=url", part)
		}
		out = append(out, cluster.ShardInfo{Name: name, URL: strings.TrimSuffix(url, "/")})
	}
	return out, nil
}

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	shards := flag.String("shards", "", "comma-separated name=url shard list (required)")
	replicas := flag.Int("replicas", 2, "shards holding each factorization (owner + replicas-1)")
	probe := flag.Duration("probe", 2*time.Second, "health-probe interval (0 disables probing)")
	failAfter := flag.Int("failafter", 3, "consecutive failures before a shard is evicted from the ring")
	maxBody := flag.Int64("maxbody", 256<<20, "request body cap in bytes")
	shutdown := flag.Duration("shutdown", 30*time.Second, "graceful-shutdown deadline for inflight requests")
	flag.Parse()

	infos, err := parseShards(*shards)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hsdrouter: %v\n", err)
		os.Exit(2)
	}
	if len(infos) == 0 {
		fmt.Fprintf(os.Stderr, "hsdrouter: -shards is required (name=url,name=url,...)\n")
		os.Exit(2)
	}

	rt, err := cluster.NewRouter(cluster.RouterOptions{
		Shards:        infos,
		Replicas:      *replicas,
		ProbeInterval: *probe,
		FailAfter:     *failAfter,
		MaxBody:       *maxBody,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hsdrouter: %v\n", err)
		os.Exit(2)
	}

	log.Printf("hsdrouter: %d shards, replicas=%d, listening on %s", len(infos), *replicas, *addr)
	serve.ListenAndServe(context.Background(), "hsdrouter", *addr, rt.Handler(), *shutdown, rt.Close)
	log.Printf("hsdrouter: bye")
}
