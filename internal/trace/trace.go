// Package trace records per-worker execution timelines and computes
// the idle-time statistics behind the paper's profiling figures
// (Figures 1, 4, 14, 15): busy/idle fractions, the point at which most
// workers go permanently idle, and an ASCII Gantt rendering of the
// timeline with the paper's task taxonomy.
package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Span is one executed task on one worker's timeline. Times are seconds
// from the start of the run — wall-clock seconds in real mode, virtual
// seconds in simulation.
type Span struct {
	TaskID int32
	Label  byte // first letter of the task kind (dag.Kind.String), or 'N' for injected noise
	Start  float64
	End    float64
}

// Trace is a complete execution timeline.
type Trace struct {
	Workers int
	Spans   [][]Span // Spans[w] is worker w's timeline, in start order
}

// New creates an empty trace for the given worker count.
func New(workers int) *Trace {
	return &Trace{Workers: workers, Spans: make([][]Span, workers)}
}

// Add appends a span to worker w's timeline. Each worker must only
// append to its own timeline (which is how both runtimes use it), so no
// locking is needed.
func (tr *Trace) Add(w int, id int32, label byte, start, end float64) {
	tr.Spans[w] = append(tr.Spans[w], Span{TaskID: id, Label: label, Start: start, End: end})
}

// EnsureWorkers grows the trace to at least n timelines. The runtime
// calls it before merging each worker's spans, so a trace sized for
// fewer workers than the run has gains timelines instead of an
// out-of-range panic.
func (tr *Trace) EnsureWorkers(n int) {
	for tr.Workers < n {
		tr.Spans = append(tr.Spans, nil)
		tr.Workers++
	}
}

// Merge appends a batch of spans to worker w's timeline. The concurrent
// runtime buffers spans in worker-local slices during the run and
// merges each worker's batch once at the end, keeping the hot dispatch
// path free of shared-slice growth; within a batch spans are already in
// start order, so the Spans invariant is preserved.
func (tr *Trace) Merge(w int, spans []Span) {
	tr.Spans[w] = append(tr.Spans[w], spans...)
}

// Makespan returns the latest span end across all workers.
func (tr *Trace) Makespan() float64 {
	end := 0.0
	for _, spans := range tr.Spans {
		for _, s := range spans {
			if s.End > end {
				end = s.End
			}
		}
	}
	return end
}

// BusyTime returns the total busy seconds of worker w.
func (tr *Trace) BusyTime(w int) float64 {
	t := 0.0
	for _, s := range tr.Spans[w] {
		t += s.End - s.Start
	}
	return t
}

// IdleFraction returns 1 - sum(busy) / (makespan * workers): the share
// of all core-seconds spent idle — the white space of Figure 1.
func (tr *Trace) IdleFraction() float64 {
	ms := tr.Makespan()
	if ms == 0 {
		return 0
	}
	busy := 0.0
	for w := 0; w < tr.Workers; w++ {
		busy += tr.BusyTime(w)
	}
	return 1 - busy/(ms*float64(tr.Workers))
}

// lastBusy returns the time at which worker w finished its final task.
func (tr *Trace) lastBusy(w int) float64 {
	end := 0.0
	for _, s := range tr.Spans[w] {
		if s.End > end {
			end = s.End
		}
	}
	return end
}

// PermanentIdlePoint returns the fraction of the makespan at which at
// least `frac` of the workers have finished their last task — the
// metric behind Figure 14's observation that with dynamic scheduling
// and column-major storage, 90% of threads are idle after only ~60% of
// the factorization time.
func (tr *Trace) PermanentIdlePoint(frac float64) float64 {
	ms := tr.Makespan()
	if ms == 0 {
		return 0
	}
	lasts := make([]float64, tr.Workers)
	for w := range lasts {
		lasts[w] = tr.lastBusy(w)
	}
	sort.Float64s(lasts)
	idx := int(frac*float64(tr.Workers)+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(lasts) {
		idx = len(lasts) - 1
	}
	return lasts[idx] / ms
}

// LowOccupancyPoint returns the fraction of the makespan after which
// the instantaneous busy fraction never again exceeds maxBusy — the
// onset of the drain-out tail visible in Figure 14, where most threads
// sit idle while the last chains complete.
func (tr *Trace) LowOccupancyPoint(maxBusy float64) float64 {
	const samples = 400
	curve := tr.busyCurve(samples)
	onset := samples
	for i := samples - 1; i >= 0; i-- {
		if curve[i] > maxBusy {
			break
		}
		onset = i
	}
	return float64(onset) / float64(samples)
}

// busyCurve samples the fraction of busy workers at n evenly spaced
// instants (bucket midpoints), normalized to [0,1]. It is the "pockets
// of idle time" visualization reduced to a curve.
func (tr *Trace) busyCurve(n int) []float64 {
	ms := tr.Makespan()
	out := make([]float64, n)
	if ms == 0 {
		return out
	}
	for i := 0; i < n; i++ {
		at := (float64(i) + 0.5) / float64(n) * ms
		busy := 0
		for w := 0; w < tr.Workers; w++ {
			for _, s := range tr.Spans[w] {
				if s.Start <= at && at < s.End {
					busy++
					break
				}
			}
		}
		out[i] = float64(busy) / float64(tr.Workers)
	}
	return out
}

// Gantt renders the timeline as ASCII art: one row per worker, width
// columns across the makespan, with each cell showing the task kind
// running at that instant ('.' = idle). It is the textual analogue of
// the paper's timeline figures.
func (tr *Trace) Gantt(width int) string {
	ms := tr.Makespan()
	var b strings.Builder
	if ms == 0 {
		return "(empty trace)\n"
	}
	for w := 0; w < tr.Workers; w++ {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, s := range tr.Spans[w] {
			i0 := int(s.Start / ms * float64(width))
			i1 := int(s.End / ms * float64(width))
			if i1 >= width {
				i1 = width - 1
			}
			for i := i0; i <= i1; i++ {
				row[i] = s.Label
			}
		}
		fmt.Fprintf(&b, "w%02d |%s|\n", w, string(row))
	}
	fmt.Fprintf(&b, "      makespan %.4fs, idle %.1f%%\n", ms, 100*tr.IdleFraction())
	return b.String()
}
