package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

func readSpec(t *testing.T) *spec {
	t.Helper()
	s, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpec holds BENCHMARK.json to what the driver knows by name: its
// workloads and the per-layer metrics it states a prediction for.
func TestSpec(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the driver %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the driver %q", i, w.Name, workloads[i].name)
		}
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	perLayer := map[string]bool{}
	for _, d := range s.PerLayer {
		perLayer[d.Name] = true
	}
	for name := range moves {
		if !perLayer[name] {
			t.Errorf("moves names %q, which BENCHMARK.json does not declare per layer", name)
		}
	}
	for _, d := range append(s.EndToEnd, s.PerLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is not made of letters, digits, _ . -", d.Name)
		}
		if d.Bound > 0.25 {
			t.Errorf("%s: bound %g above 0.25", d.Name, d.Bound)
		}
	}
}

// TestMerge: a slice run on a machine twice as slow as the reference
// counts half its time; an open loop's slice stays as measured.
func TestMerge(t *testing.T) {
	for _, open := range []bool{false, true} {
		s := &sample{}
		s.merge(&sample{lat: []float64{0.2}, within: 1, attempted: 1, elapsed: 2, open: open}, 2)
		scale := 0.5
		if open {
			scale = 1
		}
		if s.lat[0] != 0.2*scale || s.raw[0] != 0.2 || s.elapsed != 2*scale || s.within != 1 {
			t.Errorf("open=%v: merged %+v, want timings times %g", open, s, scale)
		}
	}
}

// TestWorkloads runs every workload with a 200 ms window, untraced and
// traced, and checks what the benchmark promises about its own output.
func TestWorkloads(t *testing.T) {
	s := readSpec(t)
	out := t.TempDir()
	for _, wl := range workloads {
		name := wl.name
		t.Run(name, func(t *testing.T) {
			if testing.Short() && (name == "serve_factor" || name == "serve_solve") {
				t.Skip("HTTP workload skipped in short mode")
			}
			for trace, declared := range [][]metricDef{s.EndToEnd, s.PerLayer} {
				cfg := config{workload: name, seed: 7, seconds: 0.2, trace: trace, setups: 1, out: out, spec: s}
				res, err := runOne(cfg, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("trace=%d: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(declared) {
					t.Errorf("trace=%d: %d metrics emitted, %d declared", trace, len(res.Metrics), len(declared))
				}
				for _, d := range declared {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("trace=%d: metric %s = %+v (emitted %v)", trace, d.Name, m, ok)
					}
					// ops_per_s may read 0 on a machine so slow (the race
					// detector) that every open-loop request misses its limit.
					if trace == 0 && m.Value <= 0 && d.Name != "ops_per_s" {
						t.Errorf("end-to-end metric %s = %g, want > 0", d.Name, m.Value)
					}
				}
			}
			checkTraceFile(t, filepath.Join(out, "trace-"+name+".json"))
		})
	}
}

// checkTraceFile parses a trace and checks that every span's parent
// exists, belongs to the same op and encloses it, and that each op's
// self times add up to its wall time.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(tf.Spans) == 0 || tf.Ops == 0 {
		t.Fatalf("%s: no spans", path)
	}
	for i, s := range tf.Spans {
		if s.ID != i || s.End < s.Start || s.Lanes < 1 {
			t.Fatalf("span %d malformed: %+v", i, s)
		}
		if s.Parent < 0 {
			continue
		}
		if s.Parent >= i {
			t.Fatalf("span %d: parent %d does not precede it", i, s.Parent)
		}
		p := tf.Spans[s.Parent]
		if p.Op != s.Op || s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d %s [%g,%g] op %d not enclosed by parent %s [%g,%g] op %d",
				i, s.Name, s.Start, s.End, s.Op, p.Name, p.Start, p.End, p.Op)
		}
	}
	if tf.SelfGap > 0.05 {
		t.Errorf("%s: an op's self times differ from its wall time by %.1f%%", path, 100*tf.SelfGap)
	}
}
