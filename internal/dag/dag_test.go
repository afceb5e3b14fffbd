package dag

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/layout"
	"repro/internal/mat"
)

func buildTestCALU(t *testing.T, kind layout.Kind, m, n, b, p, nstatic, group int) *CALUGraph {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	src := mat.Random(m, n, rng)
	l := layout.New(kind, src, b, layout.NewGrid(p))
	cg := BuildCALU(l, CALUOptions{NstaticCols: nstatic, Group: group})
	if err := cg.Validate(); err != nil {
		t.Fatalf("invalid graph: %v", err)
	}
	return cg
}

func TestCALUGraphValidAllLayouts(t *testing.T) {
	for _, kind := range []layout.Kind{layout.CM, layout.BCL, layout.TwoLevel} {
		buildTestCALU(t, kind, 64, 64, 8, 4, 4, 3)
	}
}

func TestCALUGraphTaskKinds(t *testing.T) {
	cg := buildTestCALU(t, layout.BCL, 64, 64, 8, 4, 8, 1)
	paper := NewCALU(layout.ShapeOf(cg.Layout), CALUOptions{NstaticCols: 8, Group: 1}).ComputeStats()
	run := cg.ComputeStats()
	// 8x8 blocks: S tasks = sum_{k=0}^{7} (8-k-1)^2 = 49+36+...+0 = 140.
	if paper.ByKind[S] != 140 {
		t.Errorf("paper graph: S tasks = %d want 140", paper.ByKind[S])
	}
	for _, s := range []Stats{paper, run} {
		// U tasks = sum (8-k-1) = 28, same for L.
		if s.ByKind[U] != 28 || s.ByKind[L] != 28 {
			t.Errorf("U=%d L=%d want 28 each", s.ByKind[U], s.ByKind[L])
		}
		if s.ByKind[Final] != 8 {
			t.Errorf("F tasks = %d want 8", s.ByKind[Final])
		}
		if s.ByKind[PLeaf] == 0 {
			t.Error("no P leaves")
		}
	}
	// The runtime graph keeps step k's 8-k-1 look-ahead S tasks and
	// merges the rest of the step's update into at most one task per
	// worker: 28 + 4*5 + 2 (step 5 has one far column, owned by two
	// workers) = 50.
	lookahead, far := make([]int, 8), make([]int, 8)
	for _, task := range cg.Tasks {
		if task.Kind != S {
			continue
		}
		if task.J == task.K+1 {
			lookahead[task.K]++
		} else {
			far[task.K]++
		}
	}
	for k := 0; k < 8; k++ {
		if lookahead[k] != 8-k-1 {
			t.Errorf("step %d: %d look-ahead S tasks, want %d", k, lookahead[k], 8-k-1)
		}
		if far[k] > 4 || (far[k] > 0) != (k+2 < 8) {
			t.Errorf("step %d: %d merged S tasks, want 1..4 while a far column is left, else 0", k, far[k])
		}
	}
	if run.ByKind[S] != 50 {
		t.Errorf("runtime graph: S tasks = %d want 50", run.ByKind[S])
	}
	if d := run.TotalFlops - paper.TotalFlops; d > 1e-9*paper.TotalFlops || d < -1e-9*paper.TotalFlops {
		t.Errorf("merging changed total flops by %g", d)
	}
}

func TestCALUStaticSplit(t *testing.T) {
	cg := buildTestCALU(t, layout.BCL, 64, 64, 8, 4, 4, 1)
	for _, task := range cg.Tasks {
		col := task.K
		if task.Kind == U || task.Kind == S {
			col = task.J
		}
		if (col < 4) != task.Static {
			t.Fatalf("task %v K=%d J=%d: static flag %v inconsistent with Nstatic=4",
				task.Kind, task.K, task.J, task.Static)
		}
	}
}

func TestCALUFullyDynamicHasNoStaticTasks(t *testing.T) {
	cg := buildTestCALU(t, layout.BCL, 48, 48, 8, 4, 0, 1)
	s := cg.ComputeStats()
	if s.StaticTask != 0 {
		t.Fatalf("%d static tasks in a fully dynamic graph", s.StaticTask)
	}
}

func TestCALUGroupingReducesSTasks(t *testing.T) {
	ungrouped := buildTestCALU(t, layout.BCL, 96, 96, 8, 4, 12, 1).ComputeStats()
	grouped := buildTestCALU(t, layout.BCL, 96, 96, 8, 4, 12, 3).ComputeStats()
	if grouped.ByKind[S] >= ungrouped.ByKind[S] {
		t.Fatalf("grouping did not reduce S tasks: %d vs %d", grouped.ByKind[S], ungrouped.ByKind[S])
	}
	// Grouping must preserve total update flops.
	if diff := grouped.TotalFlops - ungrouped.TotalFlops; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("grouping changed total flops by %g", diff)
	}
}

func TestTwoLevelNeverGroups(t *testing.T) {
	g1 := buildTestCALU(t, layout.TwoLevel, 96, 96, 8, 4, 12, 3).ComputeStats()
	g2 := buildTestCALU(t, layout.TwoLevel, 96, 96, 8, 4, 12, 1).ComputeStats()
	if g1.ByKind[S] != g2.ByKind[S] {
		t.Fatalf("2l-BL grouped: %d vs %d S tasks", g1.ByKind[S], g2.ByKind[S])
	}
}

// taskFlops weighs a critical path by flops.
func taskFlops(t *Task) float64 { return t.Flops }

func TestCALUCriticalPathPositive(t *testing.T) {
	cg := buildTestCALU(t, layout.BCL, 64, 64, 8, 4, 8, 1)
	cp := cg.CriticalPath(taskFlops)
	total := cg.ComputeStats().TotalFlops
	if cp <= 0 || cp >= total {
		t.Fatalf("critical path %g outside (0, total=%g)", cp, total)
	}
}

func TestCALUWideAndTallShapes(t *testing.T) {
	// Non-square and ragged shapes must still produce valid graphs.
	shapes := [][2]int{{64, 32}, {32, 64}, {60, 60}, {41, 23}, {23, 41}}
	for _, s := range shapes {
		buildTestCALU(t, layout.BCL, s[0], s[1], 8, 4, 2, 3)
		buildTestCALU(t, layout.TwoLevel, s[0], s[1], 8, 2, 100, 1)
	}
}

func TestGEPPGraphValid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := mat.Random(64, 64, rng)
	l := layout.New(layout.CM, src, 8, layout.NewGrid(4))
	if err := BuildGEPP(l).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGEPPNoLookaheadSerializesSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := mat.Random(32, 32, rng)
	l := layout.New(layout.CM, src, 8, layout.NewGrid(2))
	gg := BuildGEPP(l)
	// The panel of step 1 must have in-degree = number of step-0 S tasks.
	var panel1 *Task
	for _, task := range gg.Tasks {
		if task.Kind == Final && task.K == 1 {
			panel1 = task
		}
	}
	if panel1 == nil {
		t.Fatal("no step-1 panel")
	}
	if panel1.NumDeps != 9 { // 3x3 trailing blocks at step 0
		t.Fatalf("panel 1 deps = %d want 9 (fork-join barrier)", panel1.NumDeps)
	}
}

func TestIncPivGraphValid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := mat.Random(64, 64, rng)
	l := layout.New(layout.TwoLevel, src, 8, layout.NewGrid(4))
	ig := BuildIncPiv(l)
	if err := ig.Validate(); err != nil {
		t.Fatal(err)
	}
	s := ig.ComputeStats()
	if s.ByKind[L] != 28 { // TSTRF per (k, i>k)
		t.Fatalf("TSTRF count %d want 28", s.ByKind[L])
	}
}

func TestIncPivShorterCriticalPathThanGEPP(t *testing.T) {
	// The whole point of incremental pivoting: the panel is off the
	// critical path, so its flop-weighted critical path is shorter than
	// no-lookahead GEPP on the same matrix.
	rng := rand.New(rand.NewSource(4))
	src := mat.Random(128, 128, rng)
	cm := layout.New(layout.CM, src, 16, layout.NewGrid(4))
	tl := layout.New(layout.TwoLevel, src, 16, layout.NewGrid(4))
	gepp := BuildGEPP(cm).CriticalPath(taskFlops)
	incpiv := BuildIncPiv(tl).CriticalPath(taskFlops)
	if incpiv >= gepp {
		t.Fatalf("incpiv critical path %g not shorter than GEPP %g", incpiv, gepp)
	}
}

func TestPriorityOrdering(t *testing.T) {
	// Priorities must order strictly by column, then step, then kind.
	if priority(1, 0, S) <= priority(0, 5, S) {
		t.Fatal("column must dominate")
	}
	if priority(2, 1, S) <= priority(2, 0, S) {
		t.Fatal("step must order within column")
	}
	if priority(2, 2, S) <= priority(2, 2, U) {
		t.Fatal("U must precede S within a step")
	}
}

func TestValidateDetectsCycle(t *testing.T) {
	b := newBuilder("cycle", 1)
	t1 := b.add(&Task{Kind: S})
	t2 := b.add(&Task{Kind: S})
	b.edge(t1, t2)
	b.edge(t2, t1)
	if err := b.g.Validate(); err == nil {
		t.Fatal("cycle not detected")
	}
}

// TestCriticalPathDiamond: on the diamond t0 → {t1, t2} → t3 the
// critical path runs through the heavier branch, whichever branch the
// walk visits last.
func TestCriticalPathDiamond(t *testing.T) {
	for _, w := range [][2]float64{{2, 5}, {5, 2}} {
		b := newBuilder("diamond", 1)
		var ts []*Task
		for _, flops := range []float64{1, w[0], w[1], 1} {
			ts = append(ts, b.add(&Task{Kind: S, Flops: flops}))
		}
		b.edge(ts[0], ts[1])
		b.edge(ts[0], ts[2])
		b.edge(ts[1], ts[3])
		b.edge(ts[2], ts[3])
		if err := b.g.Validate(); err != nil {
			t.Fatal(err)
		}
		if cp := b.g.CriticalPath(taskFlops); cp != 7 {
			t.Fatalf("branches %v: critical path %g, want 7", w, cp)
		}
	}
}

func TestSplitBlocks(t *testing.T) {
	chunks := splitBlocks(2, 10, 3)
	if len(chunks) != 3 {
		t.Fatalf("want 3 chunks got %v", chunks)
	}
	if chunks[0][0] != 2 || chunks[2][1] != 10 {
		t.Fatalf("coverage wrong: %v", chunks)
	}
	// More chunks than blocks collapses to one per block.
	chunks = splitBlocks(8, 10, 5)
	if len(chunks) != 2 {
		t.Fatalf("want 2 chunks got %v", chunks)
	}
}

// TestCALULeavesByPanelHeight: a panel gets one tournament leaf per grid
// row and at least one per leafRows panel rows.
func TestCALULeavesByPanelHeight(t *testing.T) {
	cases := []struct {
		m, workers int
		want       []int // leaves per step
	}{
		{leafRows + 8, 1, []int{2, 1}},   // step 1's panel is exactly leafRows tall
		{2*leafRows + 8, 2, []int{3, 2}}, // a one-row grid: the height decides
		{2*leafRows + 8, 4, []int{3, 2}}, // 2 grid rows
		{leafRows, 9, []int{3, 3}},       // 3 grid rows outnumber the height's 1
	}
	for _, c := range cases {
		s := layout.NewShape(layout.BCL, c.m, 16, 8, layout.NewGrid(c.workers))
		g := NewCALU(s, CALUOptions{})
		got := make([]int, 2)
		for _, task := range g.Tasks {
			if task.Kind == PLeaf {
				got[task.K]++
			}
		}
		if got[0] != c.want[0] || got[1] != c.want[1] {
			t.Errorf("m=%d W=%d: leaves per step %v, want %v", c.m, c.workers, got, c.want)
		}
	}
}

// Property: for random shapes and splits, the CALU graph is always
// acyclic, fully connected to sources, and its S-task flop total equals
// the exact trailing-update flop count.
func TestCALUGraphStructureProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := 4 + int(rng.Int31n(5))
		mbs := 2 + int(rng.Int31n(5))
		nbs := 2 + int(rng.Int31n(5))
		m := b*mbs - int(rng.Int31n(int32(b)))
		n := b*nbs - int(rng.Int31n(int32(b)))
		p := 1 + int(rng.Int31n(6))
		nstatic := int(rng.Int31n(int32(nbs + 1)))
		group := 1 + int(rng.Int31n(3))
		kind := []layout.Kind{layout.CM, layout.BCL, layout.TwoLevel}[rng.Intn(3)]
		src := mat.Random(m, n, rng)
		l := layout.New(kind, src, b, layout.NewGrid(p))
		cg := BuildCALU(l, CALUOptions{NstaticCols: nstatic, Group: group})
		return cg.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
