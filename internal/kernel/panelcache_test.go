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

// isolateFreeList gives one test an empty free list with the given
// parking cap and restores the package's list and cap afterwards.
func isolateFreeList(t *testing.T, limit int64) {
	t.Helper()
	pcMu.Lock()
	free, parked, old := pcFree, pcParked, pcCap
	pcFree, pcParked, pcCap = map[int][][]float64{}, 0, limit
	pcMu.Unlock()
	t.Cleanup(func() {
		pcMu.Lock()
		pcFree, pcParked, pcCap = free, parked, old
		pcMu.Unlock()
	})
}

// parked reports whether buf is on the free list.
func parked(buf []float64) bool {
	pcMu.Lock()
	defer pcMu.Unlock()
	for _, b := range pcFree[len(buf)] {
		if &b[0] == &buf[0] {
			return true
		}
	}
	return false
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
		if p.buf != nil {
			t.Errorf("shape %v: the last consumer did not give the buffer back", shape)
		}
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
	if n := p.uses.Load(); n != 0 || p.buf != nil {
		t.Fatalf("after a concurrent run the handle has %d uses left and holds a buffer: %v", n, p.buf != nil)
	}
}

// TestSharedBPanelLifecycle: the first consumer takes a buffer, the
// last gives it back to the free list, and Reset re-arms the refcount —
// giving back the buffer a run that stopped between them left packed.
func TestSharedBPanelLifecycle(t *testing.T) {
	isolateFreeList(t, pcCap)
	rng := rand.New(rand.NewSource(24))
	sc := newSharedGemmCase(rng, 64, 64, 64, 2)
	p := NewSharedBPanel(2)

	GemmShared(cloneView(sc.cs[0]), sc.as[0], sc.b, p)
	buf := p.buf
	if buf == nil {
		t.Fatal("first consumer did not take a buffer")
	}
	GemmShared(cloneView(sc.cs[1]), sc.as[1], sc.b, p)
	if p.buf != nil || !parked(buf) {
		t.Fatal("last consumer did not give the buffer back")
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
	if n := p.uses.Load(); n != 0 || p.buf != nil {
		t.Fatalf("re-execution left %d uses and a held buffer: %v", n, p.buf != nil)
	}

	// Stopped run: one consumer runs, the second never does; Reset gives
	// the held buffer back and restores the count.
	p.Reset()
	GemmShared(cloneView(sc.cs[0]), sc.as[0], sc.b, p)
	buf = p.buf
	if buf == nil {
		t.Fatal("stopped run did not hold a buffer before Reset")
	}
	p.Reset()
	if p.buf != nil || !parked(buf) {
		t.Fatal("Reset did not give the held buffer back")
	}
	if n := p.uses.Load(); n != 2 {
		t.Fatalf("Reset left %d uses, want 2", n)
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

// run executes every task of the grid through GemmShared, `workers`
// tasks at a time, with one B handle per column when shared and nil
// handles otherwise, and returns the handles.
func (g updateGrid) run(workers int, shared bool) (pb []*SharedPanel) {
	pb = make([]*SharedPanel, len(g.bs))
	for j := range pb {
		if shared {
			pb[j] = NewSharedBPanel(len(g.as))
		}
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

// TestSharedPanelsHitOffBitIdentical: the same update grid run with B
// shared and with nil handles must produce the bits of plain Gemm calls
// — under every registered kernel, the portable one included, with four
// tasks in flight. On the shared run every handle's count reaches
// exactly zero and the last consumer gives its buffer back.
func TestSharedPanelsHitOffBitIdentical(t *testing.T) {
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
				pb := hit.run(4, true)
				hit.same(t, "cached", want)
				after := pcState()
				if got := after.Packs - before.Packs; got != cols {
					t.Errorf("B packs = %d, want one per column (%d)", got, cols)
				}
				if got := after.Hits - before.Hits; got != cols*(rows-1) {
					t.Errorf("B hits = %d, want %d", got, cols*(rows-1))
				}
				for i, h := range pb {
					if n := h.uses.Load(); n != 0 || h.buf != nil {
						t.Errorf("handle %d ends with %d uses and a held buffer: %v, want 0 and none", i, n, h.buf != nil)
					}
				}

				before = pcState()
				off := src.clone()
				off.run(4, false)
				off.same(t, "off", want)
				if after := pcState(); after != before {
					t.Errorf("nil handles moved the cache counters: %+v -> %+v", before, after)
				}
			})
		})
	}
}

// TestPanelBuffersRecycled: a buffer given back is handed to the next
// panel of its length instead of being reallocated, and parked bytes
// never pass the cap — a buffer given back over it is dropped.
func TestPanelBuffersRecycled(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	sc := newSharedGemmCase(rng, 64, 64, 64, 2)
	first := func(p *SharedPanel) []float64 {
		GemmShared(cloneView(sc.cs[0]), sc.as[0], sc.b, p)
		return p.buf
	}
	last := func(p *SharedPanel) { GemmShared(cloneView(sc.cs[1]), sc.as[1], sc.b, p) }

	isolateFreeList(t, pcCap)
	p := NewSharedBPanel(2)
	b1 := first(p)
	last(p)
	q := NewSharedBPanel(2)
	if b2 := first(q); &b1[0] != &b2[0] {
		t.Error("second panel of the same length did not reuse the parked buffer")
	}
	last(q)

	// Room for one buffer: of two given back, the second is dropped.
	size := int64(len(b1)) * 8
	isolateFreeList(t, size)
	p, q = NewSharedBPanel(2), NewSharedBPanel(2)
	bp, bq := first(p), first(q)
	last(p)
	last(q)
	pcMu.Lock()
	n, limit := pcParked, pcCap
	pcMu.Unlock()
	if n != size || n > limit || !parked(bp) || parked(bq) {
		t.Errorf("parked %d bytes against a cap of %d (first buffer parked %v, second %v), want exactly the first",
			n, limit, parked(bp), parked(bq))
	}
}
