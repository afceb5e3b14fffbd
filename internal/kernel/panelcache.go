package kernel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The shared packed-panel cache. The trailing-update tasks of one
// block column of a factorization step that still run one block column
// at a time — every column under CM and 2l-BL, the look-ahead column
// and the dynamic section under BCL — all multiply by the same U block,
// as every right-hand-side update of a solve sweep multiplies by the
// same X block row. Under the plain Gemm path each task re-packs
// that operand into its private workspace. A SharedPanel lets the DAG
// builder hand all consumers of one B operand a single refcounted
// packed buffer: the first task to run packs it (pack-once-then-stream,
// the discipline the HiGHS hybrid factorization demonstrates), later
// tasks stream it directly, and the last use frees it. There is no L
// side: under BCL the static section's update past the look-ahead
// column is one task per (step, owner), whose single Gemm packs each L
// slab once, and the other tasks pack their L slab privately.
//
// Budget: cached panels are accounted against one byte budget sized
// from the processor count, as many as can pack at once. When the
// budget is exhausted a panel falls back to the private packing path,
// which is bit-identical (same packed bytes, same loop order, same
// micro-kernel), so hit and miss paths cannot diverge numerically.
//
// Buffers: a freed panel buffer goes onto a free list keyed by its
// length and the next panel of that length takes it back — a
// factorization packs hundreds of panels of a handful of sizes, and a
// fresh make per panel would allocate (and zero) the whole packed
// volume on every run. Live and parked bytes together never exceed the
// budget: parked buffers are dropped to make room for a live panel.
//
// Lifecycle: the builder knows the exact consumer count, so the
// refcount is exact and the normal path frees the buffer on the last
// GemmShared. Aborted runs (a task panicked, the executor stopped
// scheduling) leave the count above zero; the executor calls
// Graph.ReleasePanels → ForceFree after the workers drain, so no budget
// leaks.

const (
	// panelCacheBase is the budget every machine gets.
	panelCacheBase = 8 << 20
	// panelCachePerCPU is the additional budget per processor —
	// roughly four 256x256 packed panels each.
	panelCachePerCPU = 1 << 20
)

// Cache events.
const (
	evPack   = iota // first-consumer packings
	evHit           // later consumers streaming a cached panel
	evMiss          // private-path fallbacks (denied or disabled)
	evDenied        // budget denials
)

var (
	pcMu sync.Mutex
	// pcBudget is fixed at start-up; only tests pin another value.
	pcBudget = panelCacheBase + int64(runtime.NumCPU())*panelCachePerCPU
	pcUsed   int64 // bytes of live panels
	pcParked int64 // bytes on pcFree
	pcFree   = map[int][][]float64{}
	pcCount  [4]int64 // by event
)

// pcEvent counts one cache event.
func pcEvent(ev int) {
	pcMu.Lock()
	pcCount[ev]++
	pcMu.Unlock()
}

// pcTrimLocked drops parked buffers until live + parked bytes fit the
// budget (or nothing is parked); pcMu must be held.
func pcTrimLocked() {
	for n, list := range pcFree {
		for len(list) > 0 && pcUsed+pcParked > pcBudget {
			list[len(list)-1] = nil
			list = list[:len(list)-1]
			pcParked -= int64(n) * 8
		}
		if len(list) == 0 {
			delete(pcFree, n)
		} else {
			pcFree[n] = list
		}
	}
}

// pcTake charges an n-double buffer to the budget and returns it — a
// parked one of that length if there is one, else a new one — or nil
// when the budget denies it. Either way the caller must overwrite all
// of it: parked buffers hold stale panels.
func pcTake(n int) []float64 {
	bytes := int64(n) * 8
	pcMu.Lock()
	if pcUsed+bytes > pcBudget {
		pcMu.Unlock()
		return nil
	}
	pcUsed += bytes
	if list := pcFree[n]; len(list) > 0 {
		buf := list[len(list)-1]
		list[len(list)-1] = nil
		pcFree[n] = list[:len(list)-1]
		pcParked -= bytes
		pcMu.Unlock()
		return buf
	}
	pcTrimLocked()
	pcMu.Unlock()
	return make([]float64, n)
}

// pcGive returns a live buffer: its bytes leave the live count and the
// buffer is parked for the next panel of its length.
func pcGive(buf []float64) {
	bytes := int64(len(buf)) * 8
	pcMu.Lock()
	pcUsed -= bytes
	if pcUsed+pcParked+bytes <= pcBudget {
		pcFree[len(buf)] = append(pcFree[len(buf)], buf)
		pcParked += bytes
	}
	pcMu.Unlock()
}

// PanelCacheStats is a snapshot of the cache counters, for tests,
// benchmarks and debugging. UsedBytes is the bytes of live panels.
type PanelCacheStats struct {
	Packs, Hits, Misses, Denied int64
	UsedBytes, BudgetBytes      int64
}

// ReadPanelCacheStats returns the current counters.
func ReadPanelCacheStats() PanelCacheStats {
	pcMu.Lock()
	defer pcMu.Unlock()
	return PanelCacheStats{
		Packs: pcCount[evPack], Hits: pcCount[evHit], Misses: pcCount[evMiss], Denied: pcCount[evDenied],
		UsedBytes: pcUsed, BudgetBytes: pcBudget,
	}
}

// SharedPanel is one refcounted packed right-hand GEMM operand shared
// by the update tasks of a factorization or solve step. Built by the
// DAG builder with the exact consumer count; each consumer passes it to
// GemmShared exactly once, which decrements the count, and the last
// call frees the buffer. A nil *SharedPanel is valid and means "pack
// this operand privately".
type SharedPanel struct {
	initUses int64
	uses     atomic.Int64

	mu     sync.Mutex // guards the fields below
	denied bool       // budget denial is sticky until Reset
	buf    []float64  // non-nil while packed
	n, k   int        // operand columns and depth
}

// NewSharedBPanel creates a handle for a right operand (one U block, or
// one solved X block row) expected to be consumed by `uses` GemmShared
// calls. With fewer than two consumers there is nothing to share and
// nil is returned (a nil handle packs privately).
func NewSharedBPanel(uses int) *SharedPanel {
	if uses < 2 {
		return nil
	}
	p := &SharedPanel{initUses: int64(uses)}
	p.uses.Store(p.initUses)
	return p
}

// Reset re-arms the panel for another execution of its graph: any
// cached buffer is returned to the budget, denial is forgotten and the
// refcount is restored. Must not run concurrently with consumers.
func (p *SharedPanel) Reset() {
	if p == nil {
		return
	}
	p.ForceFree()
	p.mu.Lock()
	p.denied = false
	p.mu.Unlock()
	p.uses.Store(p.initUses)
}

// ForceFree drops any cached buffer regardless of the remaining use
// count — executor teardown for aborted runs, where some consumers
// never executed. Idempotent; the normal last-use free makes it a
// no-op on clean runs.
func (p *SharedPanel) ForceFree() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.buf != nil {
		pcGive(p.buf)
		p.buf = nil
	}
	p.mu.Unlock()
}

// release consumes one use; the last one frees the cached buffer.
func (p *SharedPanel) release() {
	if p != nil && p.uses.Add(-1) == 0 {
		p.ForceFree()
	}
}

// GemmShared computes C -= A * B like Gemm — which is GemmShared with
// no handle — streaming B from pb when the handle holds (or can take) a
// cached packed copy and packing it privately otherwise. Every path
// dispatches exactly as Gemm does and the packed bytes are the same
// either way, so the result is bit-identical whatever was cached. A
// non-nil handle loses one use.
func GemmShared(c, a, b View, pb *SharedPanel) { gemm(c, a, b, false, pb) }

// seg returns the packed block of column offset jc (a multiple of nc)
// and depth offset pc. Blocks are stored column-block-major, each
// padded to whole nr-column panels.
func (p *SharedPanel) seg(jc, pc int) []float64 {
	return p.buf[jc/nc*roundUp(nc, nr)*p.k+roundUp(min(nc, p.n-jc), nr)*pc:]
}

// ensurePacked returns true with the shared buffer ready (packing v
// into it on the first call), or false when there is no handle or the
// byte budget denies the panel — the caller then packs privately.
// Concurrent consumers serialize here: the first packs while the rest
// wait, then all stream the same bytes.
func (p *SharedPanel) ensurePacked(v View) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.buf != nil {
		pcEvent(evHit)
		return true
	}
	if p.denied {
		pcEvent(evMiss)
		return false
	}
	n, k := v.Cols, v.Rows
	buf := pcTake((n/nc*roundUp(nc, nr) + roundUp(n%nc, nr)) * k)
	if buf == nil {
		p.denied = true
		pcEvent(evDenied)
		pcEvent(evMiss)
		return false
	}
	pcEvent(evPack)
	p.buf, p.n, p.k = buf, n, k
	for jc := 0; jc < n; jc += nc {
		for pc := 0; pc < k; pc += kc {
			packB(p.seg(jc, pc), v, pc, jc, min(kc, k-pc), min(nc, n-jc), false, nr)
		}
	}
	return true
}
