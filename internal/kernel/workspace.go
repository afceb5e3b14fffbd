package kernel

import (
	"runtime"
	"sync"
)

// workspace holds the packing buffers of one in-flight packed GEMM:
// ap receives the mc x kc block of A as mr-row panels, bp the kc x nc
// block of B as nr-column panels. tile stages one edge register tile of
// C, and trsm is the forward solve's tile-kernel scratch: as locals
// both would escape through the kernels' function values and cost an
// allocation per call. Buffers are recycled through an explicit free
// list — not a sync.Pool, whose contents a GC cycle may drop — so a
// buffer set persists across runs instead of being re-allocated after
// every collection. The rt workers call kernels concurrently and a
// megabyte-scale allocation per GEMM call would dominate small updates.
type workspace struct {
	ap   []float64
	bp   []float64
	tile [maxMR * maxNR]float64
	trsm trsmScratch
}

var (
	wsMu   sync.Mutex
	wsFree []*workspace
	// wsCap bounds the free list: one set per processor, as many as can
	// be packing at once. Sets returned beyond it (a pool wider than the
	// machine) go to the garbage collector, so a burst of concurrent
	// GEMMs cannot pin memory forever.
	wsCap = runtime.NumCPU()
)

// wsApLen/wsBpLen are the buffer lengths the active profile needs:
// packing pads the edge panel to a full mr/nr width, so each buffer
// carries one tile of slack beyond the mc*kc / kc*nc payload. maxMR and
// maxNR (not the active mr/nr) keep one allocation valid across every
// registered kernel at the same blocking, and in particular across the
// fixed panel tile (pmr/pnr) the GETRF path uses.
func wsApLen() int { return (mc + maxMR) * kc }
func wsBpLen() int { return (nc + maxNR) * kc }

func getWorkspace() *workspace {
	wsMu.Lock()
	if n := len(wsFree); n > 0 {
		w := wsFree[n-1]
		wsFree = wsFree[:n-1]
		wsMu.Unlock()
		return w
	}
	wsMu.Unlock()
	return &workspace{
		ap: make([]float64, wsApLen()),
		bp: make([]float64, wsBpLen()),
	}
}

func putWorkspace(w *workspace) {
	wsMu.Lock()
	// A buffer sized under an earlier (smaller) profile must not
	// survive a test's profile swap: drop it and let the next checkout
	// allocate at the current size.
	if len(w.ap) >= wsApLen() && len(w.bp) >= wsBpLen() && len(wsFree) < wsCap {
		wsFree = append(wsFree, w)
	}
	wsMu.Unlock()
}
