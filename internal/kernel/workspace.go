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
// Reserve'd buffer set genuinely persists for the whole factorization.
// The rt workers call kernels concurrently and a megabyte-scale
// allocation per GEMM call would dominate small updates.
type workspace struct {
	ap   []float64
	bp   []float64
	tile [maxMR * maxNR]float64
	trsm trsmScratch
}

var (
	wsMu   sync.Mutex
	wsFree []*workspace
	// wsReserved is the sum of all live Reservation sizes. The free
	// list is bounded by that sum while any reservation is live (each
	// concurrent run may have all of its workers holding a workspace at
	// once), and by wsDefaultCap between runs, so transient bursts of
	// unreserved concurrent GEMMs cannot pin memory forever.
	wsReserved int
	// wsOut counts buffer sets currently checked out; free + out is the
	// population Reserve tops up to the reserved sum, so overlapping
	// reservations each genuinely get their buffer count even when an
	// earlier run's buffers are in flight.
	wsOut        int
	wsDefaultCap = runtime.NumCPU()
)

// wsCapLocked returns the current free-list bound; wsMu must be held.
func wsCapLocked() int {
	if wsReserved > 0 {
		return wsReserved
	}
	return wsDefaultCap
}

// wsApLen/wsBpLen are the buffer lengths the active profile needs:
// packing pads the edge panel to a full mr/nr width, so each buffer
// carries one tile of slack beyond the mc*kc / kc*nc payload. maxMR and
// maxNR (not the active mr/nr) keep one allocation valid across every
// registered kernel at the same blocking, and in particular across the
// fixed panel tile (pmr/pnr) the GETRF path uses.
func wsApLen() int { return (mc + maxMR) * kc }
func wsBpLen() int { return (nc + maxNR) * kc }

func newWorkspace() *workspace {
	return &workspace{
		ap: make([]float64, wsApLen()),
		bp: make([]float64, wsBpLen()),
	}
}

func getWorkspace() *workspace {
	wsMu.Lock()
	wsOut++
	if n := len(wsFree); n > 0 {
		w := wsFree[n-1]
		wsFree = wsFree[:n-1]
		wsMu.Unlock()
		return w
	}
	wsMu.Unlock()
	return newWorkspace()
}

func putWorkspace(w *workspace) {
	wsMu.Lock()
	// A buffer sized under an earlier (smaller) profile must not
	// survive a test's profile swap: drop it and let the next checkout
	// allocate at the current size.
	if len(w.ap) >= wsApLen() && len(w.bp) >= wsBpLen() && len(wsFree) < wsCapLocked() {
		wsFree = append(wsFree, w)
	}
	wsOut--
	wsMu.Unlock()
}

// Reservation is one run's claim on n packing-buffer sets. The free
// list's bound is the SUM of all live reservations, so overlapping runs
// (the resident engine executes many factorizations concurrently) each
// keep their guaranteed buffer count: a 1-worker run starting next to
// an 8-worker run raises the bound to 9 instead of shrinking it to 1 —
// the retarget race the old global-cap Reserve had. Release the
// reservation when the run completes; the bound drops with it and the
// excess buffer sets are handed to the garbage collector, so
// alternating wide and narrow runs do not pin the widest run's
// per-worker buffers forever.
type Reservation struct {
	n int
}

// Reserve registers a run with n concurrent kernel callers and
// pre-allocates its buffer sets so no task pays the first-touch
// allocation of its pack buffers mid-factorization. internal/rt calls
// it with the worker count before starting a run; the resident engine
// holds one pool-wide reservation for its whole lifetime. n < 1
// reserves nothing (the returned Reservation is still valid to
// Release). The shared packed-panel cache's byte budget scales with the
// reserved sum (panelcache.go), so a wider pool may cache more panels.
func Reserve(n int) *Reservation {
	if n < 1 {
		return &Reservation{}
	}
	wsMu.Lock()
	wsReserved += n
	// Two guarantees: this reservation's n buffers are on the free
	// list right now (checkouts in flight — other runs' or unreserved
	// callers' — cannot be counted as available to us), and the total
	// population covers the reserved sum (overlapping reservations
	// that have not checked out yet each still find their share
	// later). Either shortfall is topped up here, never
	// mid-factorization.
	for len(wsFree) < n || len(wsFree)+wsOut < wsReserved {
		wsFree = append(wsFree, newWorkspace())
	}
	reserved := wsReserved
	wsMu.Unlock()
	pcSetSlots(reserved)
	return &Reservation{n: n}
}

// Release returns the reservation. Idempotent: releasing twice is a
// no-op (the spent check happens under wsMu, so concurrent or repeated
// releases cannot double-subtract). The free list is trimmed to the
// new bound.
func (r *Reservation) Release() {
	if r == nil {
		return
	}
	wsMu.Lock()
	if r.n == 0 {
		wsMu.Unlock()
		return
	}
	wsReserved -= r.n
	r.n = 0
	if cap := wsCapLocked(); len(wsFree) > cap {
		for i := cap; i < len(wsFree); i++ {
			wsFree[i] = nil // release, do not retain via the backing array
		}
		wsFree = wsFree[:cap]
	}
	reserved := wsReserved
	wsMu.Unlock()
	pcSetSlots(reserved)
}
