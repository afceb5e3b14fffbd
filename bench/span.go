package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one interval at a layer boundary, recorded by the benchmark
// around its own calls into the layers. Times are seconds since the
// recorder's epoch.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for an op's root span
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	// Lanes is the number of parallel timelines the span is one of (the
	// W worker lanes under rt.run, and the task spans inside them); 1
	// elsewhere. A span's wall-clock share is its time divided by Lanes,
	// which is what makes an op's self times sum to its wall time.
	Lanes int `json:"lanes"`
	// Computed marks a span whose length comes from a reply field or a
	// twin measurement of the same call, and whose position inside its
	// parent is therefore synthesized.
	Computed bool `json:"computed,omitempty"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	ops   int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) at(t time.Time) float64 { return t.Sub(r.epoch).Seconds() }

// newOp hands out the identifier the spans of one op share.
func (r *recorder) newOp() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.ops - 1
}

// add records a span and returns its id. A child is clipped to its
// parent, so a twin that ran longer than the call it stands for cannot
// make the parent's self time negative.
func (r *recorder) add(op, parent int, name string, start, end float64, lanes int, computed bool) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if parent >= 0 {
		p := r.spans[parent]
		start = min(max(start, p.Start), p.End)
		end = min(max(end, start), p.End)
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start, End: end, Lanes: lanes, Computed: computed})
	return id
}

// real records a measured span on the single serial lane.
func (r *recorder) real(op, parent int, name string, start, end time.Time) int {
	return r.add(op, parent, name, r.at(start), r.at(end), 1, false)
}

// selfRow is one line of the self-time table.
type selfRow struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	// Self is the wall-clock share of the spans' own time: duration
	// minus the part covered by children, divided by Lanes.
	Self  float64 `json:"self_s"`
	Share float64 `json:"self_share"` // of all ops' wall time
}

// selfTimes computes every span's self time (duration minus the union
// of its children) and aggregates by name. It also returns the largest
// relative gap between one op's wall time and the sum of its self
// times.
func selfTimes(spans []span) (rows []selfRow, maxGap float64) {
	kids := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	byName := map[string]*selfRow{}
	opWall := map[int]float64{}
	opSelf := map[int]float64{}
	wall := 0.0
	for _, s := range spans {
		dur := s.End - s.Start
		iv := make([][2]float64, 0, len(kids[s.ID]))
		for _, k := range kids[s.ID] {
			iv = append(iv, [2]float64{spans[k].Start, spans[k].End})
		}
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, edge := 0.0, s.Start
		for _, c := range iv {
			if c[1] > edge {
				covered += c[1] - max(c[0], edge)
				edge = c[1]
			}
		}
		self := (dur - covered) / float64(s.Lanes)
		row := byName[s.Name]
		if row == nil {
			row = &selfRow{Name: s.Name}
			byName[s.Name] = row
		}
		row.Count++
		row.Total += dur
		row.Self += self
		opSelf[s.Op] += self
		if s.Parent < 0 {
			opWall[s.Op] = dur
			wall += dur
		}
	}
	for op, w := range opWall {
		if w > 0 {
			maxGap = max(maxGap, math.Abs(opSelf[op]-w)/w)
		}
	}
	for _, row := range byName {
		if wall > 0 {
			row.Share = row.Self / wall
		}
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Self > rows[j].Self })
	return rows, maxGap
}

// traceFile is what a traced run leaves in the output directory.
type traceFile struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Ops       int       `json:"ops"`
	SelfGap   float64   `json:"max_self_time_gap"`
	SelfTimes []selfRow `json:"self_times"`
	Spans     []span    `json:"spans"`
}

// write stores the spans and their self-time table as
// <dir>/trace-<workload>.json and prints the table.
func (r *recorder) write(dir, workload string, seed int64, w io.Writer) error {
	rows, gap := selfTimes(r.spans)
	fmt.Fprintf(w, "\nself time by span (%d traced ops, %d spans, max |sum self - wall| / wall = %.4f)\n",
		r.ops, len(r.spans), gap)
	fmt.Fprintf(w, "  %-22s %8s %12s %12s %7s\n", "span", "count", "total_s", "self_s", "share")
	for _, row := range rows {
		fmt.Fprintf(w, "  %-22s %8d %12.6f %12.6f %6.1f%%\n", row.Name, row.Count, row.Total, row.Self, 100*row.Share)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Ops: r.ops,
		SelfGap: gap, SelfTimes: rows, Spans: r.spans})
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	fmt.Fprintf(w, "trace written to %s\n", path)
	return os.WriteFile(path, data, 0o644)
}
