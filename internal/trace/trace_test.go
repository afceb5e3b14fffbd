package trace

import (
	"math"
	"strings"
	"testing"
)

func mkTrace() *Trace {
	tr := New(2)
	tr.Add(0, 1, 'S', 0, 1)
	tr.Add(0, 2, 'S', 1, 2)
	tr.Add(1, 3, 'U', 0, 1)
	// Worker 1 idles for [1,2).
	return tr
}

func TestMakespan(t *testing.T) {
	tr := mkTrace()
	if tr.Makespan() != 2 {
		t.Fatalf("makespan %g want 2", tr.Makespan())
	}
}

func TestBusyAndIdle(t *testing.T) {
	tr := mkTrace()
	if tr.BusyTime(0) != 2 || tr.BusyTime(1) != 1 {
		t.Fatalf("busy %g,%g", tr.BusyTime(0), tr.BusyTime(1))
	}
	// Idle = 1 - 3/(2*2) = 0.25
	if math.Abs(tr.IdleFraction()-0.25) > 1e-12 {
		t.Fatalf("idle fraction %g want 0.25", tr.IdleFraction())
	}
}

func TestEmptyTrace(t *testing.T) {
	tr := New(3)
	if tr.Makespan() != 0 || tr.IdleFraction() != 0 {
		t.Fatal("empty trace must be all zeros")
	}
	if !strings.Contains(tr.Gantt(10), "empty") {
		t.Fatal("empty gantt must say so")
	}
}

func TestPermanentIdlePoint(t *testing.T) {
	tr := New(10)
	// 9 workers finish at t=6, one at t=10.
	for w := 0; w < 9; w++ {
		tr.Add(w, int32(w), 'S', 0, 6)
	}
	tr.Add(9, 9, 'S', 0, 10)
	// 90% of workers are permanently idle after 60% of the makespan —
	// exactly Figure 14's pathology.
	got := tr.PermanentIdlePoint(0.9)
	if math.Abs(got-0.6) > 1e-9 {
		t.Fatalf("idle point %g want 0.6", got)
	}
}

func TestBusyCurve(t *testing.T) {
	tr := mkTrace()
	c := tr.busyCurve(4)
	if len(c) != 4 {
		t.Fatal("bad curve length")
	}
	if c[0] != 1.0 { // both workers busy at start
		t.Fatalf("start busyness %g want 1", c[0])
	}
	for _, v := range c {
		if v < 0 || v > 1 {
			t.Fatalf("curve out of range: %v", c)
		}
	}
}

func TestGantt(t *testing.T) {
	tr := mkTrace()
	g := tr.Gantt(20)
	if !strings.Contains(g, "w00") || !strings.Contains(g, "w01") {
		t.Fatal("gantt missing workers")
	}
	if !strings.Contains(g, "S") || !strings.Contains(g, "U") {
		t.Fatal("gantt missing task labels")
	}
	if !strings.Contains(g, ".") {
		t.Fatal("gantt missing idle cells")
	}
}

func TestLastBusy(t *testing.T) {
	tr := mkTrace()
	if tr.lastBusy(0) != 2 || tr.lastBusy(1) != 1 {
		t.Fatal("lastBusy wrong")
	}
}

func TestLowOccupancyPoint(t *testing.T) {
	tr := New(4)
	// All 4 workers busy for [0,6), then a single-worker tail to t=10.
	for w := 0; w < 4; w++ {
		tr.Add(w, int32(w), 'S', 0, 6)
	}
	tr.Add(0, 9, 'S', 6, 10)
	got := tr.LowOccupancyPoint(0.5)
	if got < 0.55 || got > 0.65 {
		t.Fatalf("low-occupancy onset %g want ~0.6", got)
	}
	// A fully busy trace never drops below threshold before the end.
	tr2 := New(2)
	tr2.Add(0, 0, 'S', 0, 10)
	tr2.Add(1, 1, 'S', 0, 10)
	if p := tr2.LowOccupancyPoint(0.5); p < 0.99 {
		t.Fatalf("fully busy trace onset %g want ~1", p)
	}
}
