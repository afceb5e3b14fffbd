package kernel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The shared packed-panel cache. The trailing-update tasks of one
// block column of a factorization step that run one block column at a
// time — every column under CM and 2l-BL, the look-ahead column and the
// dynamic section under BCL — all multiply by the same U block, as the
// updates of a solve sweep step multiply by the same X block row. A
// SharedPanel hands the consumers of one B operand a single refcounted
// packed buffer: the first to take the packed path packs it
// (pack-once-then-stream, as the HiGHS hybrid factorization does), the
// others stream it, and the last use gives it back. There is no L side:
// under BCL the static update past the look-ahead column is one task
// per (step, owner), whose single Gemm packs each L slab once.
//
// A run that aborts leaves its count above zero and its buffer to the
// garbage collector, unless the graph runs again: Reset gives it back.
// A buffer given back goes onto a free list keyed by its length — a
// factorization packs hundreds of panels of a handful of sizes — with
// the parked bytes capped.

// pcCap bounds the bytes parked on the free list: a base every machine
// gets plus 1 MiB per processor, roughly four 256x256 packed panels
// each. Fixed at start-up; only tests pin another value.
var pcCap = int64(8<<20 + runtime.NumCPU()<<20)

var (
	pcMu     sync.Mutex
	pcParked int64 // bytes on pcFree
	pcFree   = map[int][][]float64{}

	pcPacks atomic.Int64 // first-consumer packings
	pcHits  atomic.Int64 // later consumers streaming a cached panel
)

// pcTake returns an n-double buffer — a parked one of that length if
// there is one, else a new one. The caller must overwrite all of it:
// parked buffers hold stale panels.
func pcTake(n int) []float64 {
	pcMu.Lock()
	list := pcFree[n]
	if len(list) == 0 {
		pcMu.Unlock()
		return make([]float64, n)
	}
	buf := list[len(list)-1]
	list[len(list)-1] = nil
	pcFree[n] = list[:len(list)-1]
	pcParked -= int64(n) * 8
	pcMu.Unlock()
	return buf
}

// pcGive parks a buffer for the next panel of its length, or leaves it
// to the garbage collector when parking it would pass the cap.
func pcGive(buf []float64) {
	bytes := int64(len(buf)) * 8
	pcMu.Lock()
	if pcParked+bytes <= pcCap {
		pcFree[len(buf)] = append(pcFree[len(buf)], buf)
		pcParked += bytes
	}
	pcMu.Unlock()
}

// PanelCacheStats is a snapshot of the cache counters, for tests,
// benchmarks and debugging. Misses is always 0, since every consumer
// of a handle streams its shared buffer; it stays because the benchmark
// module reads it.
type PanelCacheStats struct {
	Packs, Hits, Misses int64
}

// ReadPanelCacheStats returns the current counters.
func ReadPanelCacheStats() PanelCacheStats {
	return PanelCacheStats{Packs: pcPacks.Load(), Hits: pcHits.Load()}
}

// SharedPanel is one refcounted packed right-hand GEMM operand shared
// by the update tasks of a factorization or solve step. Built by the
// DAG builder with the exact consumer count; each consumer passes it to
// GemmShared exactly once, which decrements the count, and the last
// call gives the buffer back. A nil *SharedPanel is valid and means
// "pack this operand privately".
type SharedPanel struct {
	initUses int64
	uses     atomic.Int64

	mu   sync.Mutex // guards the fields below
	buf  []float64  // non-nil while packed
	n, k int        // operand columns and depth
}

// NewSharedBPanel creates a handle for a k x n right operand (one U
// block, or one solved X block row) consumed by one GemmShared call
// per entry of ms, updating ms[i] rows. Unless two of them take the
// packed path there is nothing to share, and it returns nil.
func NewSharedBPanel(k, n int, ms []int) *SharedPanel {
	packing := 0
	for _, m := range ms {
		if packedWorthwhile(m, n, k) {
			packing++
		}
	}
	if packing < 2 {
		return nil
	}
	p := &SharedPanel{initUses: int64(len(ms))}
	p.uses.Store(p.initUses)
	return p
}

// Reset re-arms the panel for another execution of its graph: a buffer
// an aborted run left packed is given back and the refcount is
// restored. Must not run concurrently with consumers.
func (p *SharedPanel) Reset() {
	if p == nil {
		return
	}
	p.giveBack()
	p.uses.Store(p.initUses)
}

// giveBack returns the packed buffer, if any, to the free list.
func (p *SharedPanel) giveBack() {
	p.mu.Lock()
	if p.buf != nil {
		pcGive(p.buf)
		p.buf = nil
	}
	p.mu.Unlock()
}

// release consumes one use; the last one gives the buffer back.
func (p *SharedPanel) release() {
	if p != nil && p.uses.Add(-1) == 0 {
		p.giveBack()
	}
}

// GemmShared computes C -= A * B like Gemm — which is GemmShared with
// no handle — streaming B from the handle's shared packed copy, which
// the first consumer packs. Every path dispatches exactly as Gemm does
// and the packed bytes are the same either way, so the result is
// bit-identical with or without a handle. A non-nil handle loses one
// use.
func GemmShared(c, a, b View, pb *SharedPanel) { gemm(c, a, b, false, pb) }

// seg returns the packed block of column offset jc (a multiple of nc)
// and depth offset pc. Blocks are stored column-block-major, each
// padded to whole nr-column panels.
func (p *SharedPanel) seg(jc, pc int) []float64 {
	return p.buf[jc/nc*roundUp(nc, nr)*p.k+roundUp(min(nc, p.n-jc), nr)*pc:]
}

// packed returns the handle with v packed into its shared buffer,
// packing on the first call; a nil handle stays nil. Concurrent
// consumers serialize here: the first packs while the rest wait, then
// all stream the same bytes.
func (p *SharedPanel) packed(v View) *SharedPanel {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.buf != nil {
		pcHits.Add(1)
		return p
	}
	pcPacks.Add(1)
	n, k := v.Cols, v.Rows
	p.buf, p.n, p.k = pcTake((n/nc*roundUp(nc, nr)+roundUp(n%nc, nr))*k), n, k
	for jc := 0; jc < n; jc += nc {
		for pc := 0; pc < k; pc += kc {
			packB(p.seg(jc, pc), v, pc, jc, min(kc, k-pc), min(nc, n-jc), false, nr)
		}
	}
	return p
}

// Held reports whether the handle holds a packed buffer; after a clean
// run of its graph none does.
func (p *SharedPanel) Held() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.buf != nil
}
