// -benchjson: machine-readable kernel throughput. `go test -bench=...
// -benchjson BENCH_kernel.json` writes a {benchmark name: GFLOPS} JSON
// object for the kernel benchmarks that report a GFLOPS metric (and
// BenchmarkLayoutSwaps' GB/s, which has no flops to count), so CI
// can archive per-shape throughput as an artifact and PRs can diff it
// against a recorded baseline instead of eyeballing ns/op logs.
package repro

import (
	"encoding/json"
	"flag"
	"os"
	"sync"
	"testing"
)

var benchJSONPath = flag.String("benchjson", "", "write kernel benchmark GFLOPS to this JSON file")

var (
	benchJSONMu  sync.Mutex
	benchJSONRec = map[string]float64{}
)

// recordBenchGFLOPS notes one benchmark's throughput and rewrites the
// JSON file. Benchmarks have no global teardown hook, so rewriting the
// accumulated map on every record keeps the file complete whenever the
// run ends; repeated runs of one benchmark are last-write-wins.
func recordBenchGFLOPS(b *testing.B, gflops float64) {
	if *benchJSONPath == "" {
		return
	}
	benchJSONMu.Lock()
	defer benchJSONMu.Unlock()
	benchJSONRec[b.Name()] = gflops
	buf, err := json.MarshalIndent(benchJSONRec, "", "  ")
	if err != nil {
		b.Fatalf("benchjson: %v", err)
	}
	if err := os.WriteFile(*benchJSONPath, append(buf, '\n'), 0o644); err != nil {
		b.Fatalf("benchjson: %v", err)
	}
}
