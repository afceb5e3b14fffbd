package kernel

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// pcState snapshots the cache counters so tests can assert deltas
// (the counters are process-global and accumulate across tests).
func pcState() PanelCacheStats { return ReadPanelCacheStats() }

// setPanelBudget pins the byte budget for one test and restores it.
func setPanelBudget(t *testing.T, budget int64) {
	t.Helper()
	pcMu.Lock()
	old := pcBudget
	pcBudget = budget
	pcMu.Unlock()
	t.Cleanup(func() {
		pcMu.Lock()
		pcBudget = old
		pcMu.Unlock()
	})
}

// sharedGemmCase is one consumer set: `uses` distinct (C, A) pairs all
// multiplying by the same B, the shape the DAG builders create.
type sharedGemmCase struct {
	b      View
	as, cs []View
}

func newSharedGemmCase(rng *rand.Rand, m, n, k, uses int) sharedGemmCase {
	sc := sharedGemmCase{b: randView(rng, k, n)}
	for i := 0; i < uses; i++ {
		sc.as = append(sc.as, randView(rng, m, k))
		sc.cs = append(sc.cs, randView(rng, m, n))
	}
	return sc
}

// want runs the plain Gemm path over clones and returns the expected
// results.
func (sc sharedGemmCase) want() []View {
	out := make([]View, len(sc.cs))
	for i := range sc.cs {
		out[i] = cloneView(sc.cs[i])
		Gemm(out[i], sc.as[i], sc.b)
	}
	return out
}

// TestSharedBPanelHitBitIdentical: consumers streaming the shared
// packed B must produce results EXACTLY equal to the private path —
// same packed bytes, same loop order, same micro-kernel — so cache hit
// and miss cannot diverge numerically.
func TestSharedBPanelHitBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, shape := range [][4]int{{64, 64, 64, 3}, {150, 117, 93, 4}, {40, 700, 520, 2}} {
		m, n, k, uses := shape[0], shape[1], shape[2], shape[3]
		sc := newSharedGemmCase(rng, m, n, k, uses)
		want := sc.want()
		before := pcState()
		p := NewSharedBPanel(uses)
		if p == nil {
			t.Fatal("NewSharedBPanel returned nil for uses >= 2")
		}
		for i := range sc.cs {
			GemmShared(sc.cs[i], sc.as[i], sc.b, p)
		}
		for i := range sc.cs {
			if d := maxAbsDiffBacking(sc.cs[i], want[i]); d != 0 {
				t.Fatalf("shape %v consumer %d: shared path diverges, max |diff| = %g (want exactly 0)", shape, i, d)
			}
		}
		after := pcState()
		if after.Packs != before.Packs+1 {
			t.Errorf("shape %v: packs %d -> %d, want exactly one shared packing", shape, before.Packs, after.Packs)
		}
		if after.Hits != before.Hits+int64(uses-1) {
			t.Errorf("shape %v: hits %d -> %d, want %d streaming consumers", shape, before.Hits, after.Hits, uses-1)
		}
		if after.UsedBytes != before.UsedBytes {
			t.Errorf("shape %v: used bytes leaked: %d -> %d", shape, before.UsedBytes, after.UsedBytes)
		}
	}
}

// TestSharedBPanelDeniedFallsBack: under a budget too small for the
// panel, every consumer takes the private path and the results are
// still exact; the denial is counted once and is sticky until Reset.
func TestSharedBPanelDeniedFallsBack(t *testing.T) {
	setPanelBudget(t, 64) // bytes; any real panel exceeds this
	rng := rand.New(rand.NewSource(22))
	sc := newSharedGemmCase(rng, 96, 96, 96, 3)
	want := sc.want()
	before := pcState()
	p := NewSharedBPanel(3)
	for i := range sc.cs {
		GemmShared(sc.cs[i], sc.as[i], sc.b, p)
	}
	for i := range sc.cs {
		if d := maxAbsDiffBacking(sc.cs[i], want[i]); d != 0 {
			t.Fatalf("consumer %d: denied path diverges, max |diff| = %g", i, d)
		}
	}
	after := pcState()
	if got := after.Denied - before.Denied; got != 1 {
		t.Errorf("denials = %d, want 1 (sticky after the first)", got)
	}
	if got := after.Misses - before.Misses; got != 3 {
		t.Errorf("misses = %d, want one per consumer (3)", got)
	}
	if after.UsedBytes != before.UsedBytes {
		t.Errorf("denied panel changed used bytes: %d -> %d", before.UsedBytes, after.UsedBytes)
	}
}

// TestSharedBPanelConcurrent exercises the pack-once race under -race:
// all consumers run at once, the first to arrive packs while the rest
// block, and every result must equal the serial plain-Gemm oracle.
func TestSharedBPanelConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const uses = 8
	sc := newSharedGemmCase(rng, 120, 96, 80, uses)
	want := sc.want()
	p := NewSharedBPanel(uses)
	var wg sync.WaitGroup
	for i := 0; i < uses; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			GemmShared(sc.cs[i], sc.as[i], sc.b, p)
		}(i)
	}
	wg.Wait()
	for i := range sc.cs {
		if d := maxAbsDiffBacking(sc.cs[i], want[i]); d != 0 {
			t.Fatalf("concurrent consumer %d diverges: max |diff| = %g", i, d)
		}
	}
	if s := pcState(); s.UsedBytes < 0 {
		t.Fatalf("negative used bytes %d after concurrent run", s.UsedBytes)
	}
}

// TestSharedBPanelLifecycle covers the refcount free, ForceFree
// idempotence and Reset re-arming.
func TestSharedBPanelLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	sc := newSharedGemmCase(rng, 64, 64, 64, 2)
	before := pcState()
	p := NewSharedBPanel(2)

	GemmShared(cloneView(sc.cs[0]), sc.as[0], sc.b, p)
	if s := pcState(); s.UsedBytes <= before.UsedBytes {
		t.Fatal("first consumer did not charge the budget")
	}
	GemmShared(cloneView(sc.cs[1]), sc.as[1], sc.b, p)
	if s := pcState(); s.UsedBytes != before.UsedBytes {
		t.Fatalf("last consumer did not free: used %d -> %d", before.UsedBytes, s.UsedBytes)
	}
	p.ForceFree() // idempotent after the refcount free
	if s := pcState(); s.UsedBytes != before.UsedBytes {
		t.Fatal("ForceFree after normal free changed accounting")
	}

	// Reset re-arms for a full re-execution (the rt path for re-runs).
	p.Reset()
	want := sc.want()
	got := []View{cloneView(sc.cs[0]), cloneView(sc.cs[1])}
	GemmShared(got[0], sc.as[0], sc.b, p)
	GemmShared(got[1], sc.as[1], sc.b, p)
	for i := range got {
		if d := maxAbsDiffBacking(got[i], want[i]); d != 0 {
			t.Fatalf("post-Reset consumer %d diverges: max |diff| = %g", i, d)
		}
	}
	if s := pcState(); s.UsedBytes != before.UsedBytes {
		t.Fatalf("re-execution leaked bytes: %d -> %d", before.UsedBytes, s.UsedBytes)
	}

	// Abort path: one consumer runs, the second never does; ForceFree
	// must reclaim.
	p.Reset()
	GemmShared(cloneView(sc.cs[0]), sc.as[0], sc.b, p)
	if s := pcState(); s.UsedBytes <= before.UsedBytes {
		t.Fatal("aborted run did not hold a buffer before ForceFree")
	}
	p.ForceFree()
	if s := pcState(); s.UsedBytes != before.UsedBytes {
		t.Fatalf("ForceFree leaked: %d -> %d", before.UsedBytes, s.UsedBytes)
	}
}

// TestSharedBPanelNilDegrades: fewer than two consumers yields nil, and
// the nil receiver is the plain Gemm path.
func TestSharedBPanelNilDegrades(t *testing.T) {
	if p := NewSharedBPanel(1); p != nil {
		t.Fatal("one consumer should not allocate a shared panel")
	}
	rng := rand.New(rand.NewSource(25))
	a := randView(rng, 48, 48)
	b := randView(rng, 48, 48)
	c1 := randView(rng, 48, 48)
	c2 := cloneView(c1)
	var p *SharedPanel
	GemmShared(c1, a, b, p)
	Gemm(c2, a, b)
	if d := maxAbsDiffBacking(c1, c2); d != 0 {
		t.Fatalf("nil panel path diverges from Gemm: %g", d)
	}
}

// TestSharedBPanelSmallShapesBypass: shapes under the packed crossover
// must dispatch exactly like Gemm (small path), still bit-identical,
// without touching the cache.
func TestSharedBPanelSmallShapesBypass(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	before := pcState()
	sc := newSharedGemmCase(rng, 8, 8, 8, 2)
	want := sc.want()
	p := NewSharedBPanel(2)
	GemmShared(sc.cs[0], sc.as[0], sc.b, p)
	GemmShared(sc.cs[1], sc.as[1], sc.b, p)
	for i := range sc.cs {
		if d := maxAbsDiffBacking(sc.cs[i], want[i]); d != 0 {
			t.Fatalf("small-shape consumer %d diverges: %g", i, d)
		}
	}
	after := pcState()
	if after.Packs != before.Packs || after.Hits != before.Hits {
		t.Error("sub-crossover shapes must not engage the panel cache")
	}
}

// updateGrid is one factorization step's column-by-column trailing
// update in miniature: rows x cols tasks, task (r, j) computing
// C[r][j] -= A[r] * B[j], so every B is shared along a column — the
// shape BuildCALU creates for the look-ahead column and the dynamic
// section.
type updateGrid struct {
	as, bs []View
	cs     [][]View
}

func newUpdateGrid(rng *rand.Rand, rows, cols, m, n, k int) updateGrid {
	g := updateGrid{cs: make([][]View, rows)}
	for j := 0; j < cols; j++ {
		g.bs = append(g.bs, randView(rng, k, n))
	}
	for r := 0; r < rows; r++ {
		g.as = append(g.as, randView(rng, m, k))
		for j := 0; j < cols; j++ {
			g.cs[r] = append(g.cs[r], randView(rng, m, n))
		}
	}
	return g
}

func (g updateGrid) clone() updateGrid {
	out := updateGrid{as: g.as, bs: g.bs, cs: make([][]View, len(g.cs))}
	for r := range g.cs {
		for _, c := range g.cs[r] {
			out.cs[r] = append(out.cs[r], cloneView(c))
		}
	}
	return out
}

// run executes every task of the grid through GemmShared with one B
// handle per column, `workers` tasks at a time, and returns the
// handles.
func (g updateGrid) run(workers int) (pb []*SharedPanel) {
	for range g.bs {
		pb = append(pb, NewSharedBPanel(len(g.as)))
	}
	var wg sync.WaitGroup
	tasks := make(chan [2]int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range tasks {
				GemmShared(g.cs[t[0]][t[1]], g.as[t[0]], g.bs[t[1]], pb[t[1]])
			}
		}()
	}
	for r := range g.as {
		for j := range g.bs {
			tasks <- [2]int{r, j}
		}
	}
	close(tasks)
	wg.Wait()
	return pb
}

func (g updateGrid) same(t *testing.T, what string, want updateGrid) {
	t.Helper()
	for r := range g.cs {
		for j := range g.cs[r] {
			sameBits(t, fmt.Sprintf("%s: task (%d,%d)", what, r, j), g.cs[r][j], want.cs[r][j])
		}
	}
}

// TestSharedPanelsHitDeniedOffBitIdentical: the same update grid run
// with B cached, with a budget that denies every panel and
// with a zero budget must produce the bits of plain Gemm calls
// — under every registered kernel, the portable one included, with
// four tasks in flight. On the clean run every handle's count reaches
// exactly zero: the last consumer, not a ForceFree, returns the bytes.
func TestSharedPanelsHitDeniedOffBitIdentical(t *testing.T) {
	const rows, cols = 3, 5
	for _, p := range kernelProfiles() {
		p := p
		t.Run(p.Kernel, func(t *testing.T) {
			withProfile(t, p, func() {
				rng := rand.New(rand.NewSource(41))
				// m spans several mc blocks, n two nc blocks, k three kc blocks, all
				// with ragged edges.
				src := newUpdateGrid(rng, rows, cols, 9*p.MR+3, 5*p.NR+1, 2*p.KC+5)
				want := src.clone()
				for r := range want.as {
					for j := range want.bs {
						Gemm(want.cs[r][j], want.as[r], want.bs[j])
					}
				}

				before := pcState()
				hit := src.clone()
				pb := hit.run(4)
				hit.same(t, "cached", want)
				after := pcState()
				if got := after.Packs - before.Packs; got != cols {
					t.Errorf("B packs = %d, want one per column (%d)", got, cols)
				}
				if got := after.Hits - before.Hits; got != cols*(rows-1) {
					t.Errorf("B hits = %d, want %d", got, cols*(rows-1))
				}
				if after.UsedBytes != before.UsedBytes {
					t.Errorf("clean run left %d bytes live before any ForceFree", after.UsedBytes-before.UsedBytes)
				}
				for i, h := range pb {
					if n := h.uses.Load(); n != 0 {
						t.Errorf("handle %d ends with %d uses, want exactly 0", i, n)
					}
				}

				setPanelBudget(t, 64)
				before = pcState()
				denied := src.clone()
				denied.run(4)
				denied.same(t, "denied", want)
				after = pcState()
				if got := after.Denied - before.Denied; got != cols {
					t.Errorf("B denials = %d, want one per column (%d)", got, cols)
				}
				if got := after.Misses - before.Misses; got != rows*cols {
					t.Errorf("B misses = %d, want one per task (%d)", got, rows*cols)
				}

				// A zero budget admits nothing, not even a parked buffer.
				setPanelBudget(t, 0)
				off := src.clone()
				off.run(4)
				off.same(t, "off", want)
				if s := pcState(); s.UsedBytes != before.UsedBytes {
					t.Errorf("disabled cache holds %d bytes", s.UsedBytes-before.UsedBytes)
				}
			})
		})
	}
}

// TestPanelBuffersRecycled: a freed panel buffer is handed to the next
// panel of its length instead of being reallocated, parked bytes count
// against the budget together with live ones, and a shrinking budget
// drops them.
func TestPanelBuffersRecycled(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	sc := newSharedGemmCase(rng, 64, 64, 64, 2)
	pack := func() *float64 {
		p := NewSharedBPanel(2)
		GemmShared(cloneView(sc.cs[0]), sc.as[0], sc.b, p)
		first := &p.buf[0]
		GemmShared(cloneView(sc.cs[1]), sc.as[1], sc.b, p) // last use parks it
		return first
	}
	if b1, b2 := pack(), pack(); b1 != b2 {
		t.Error("second panel of the same length did not reuse the parked buffer")
	}
	pcMu.Lock()
	used, parked, budget := pcUsed, pcParked, pcBudget
	pcMu.Unlock()
	if parked == 0 || used+parked > budget {
		t.Errorf("used %d + parked %d vs budget %d: parked buffers must exist and fit", used, parked, budget)
	}
	setPanelBudget(t, 0)
	pcMu.Lock()
	pcTrimLocked()
	parked, lists := pcParked, len(pcFree)
	pcMu.Unlock()
	if parked != 0 || lists != 0 {
		t.Errorf("zero budget keeps %d parked bytes in %d lists", parked, lists)
	}
}
