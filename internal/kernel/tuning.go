package kernel

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Blocking parameters of the packed GEMM, following the classic
// three-level Goto/BLIS decomposition:
//
//   - mr x nr is the register tile computed by the micro-kernel. The
//     portable micro-kernel uses 4x4 (16 scalar accumulators); the amd64
//     AVX2+FMA micro-kernel uses 8x6 (twelve 256-bit accumulators).
//   - kc limits the k extent of one packed A/B pair so that an mr x kc
//     sliver of A plus a kc x nr sliver of B stay L1-resident while the
//     micro-kernel streams over them.
//   - mc limits the row extent of the packed A block (mc x kc doubles)
//     so it stays L2-resident across the whole macro-kernel sweep.
//   - nc limits the column extent of the packed B block (kc x nc
//     doubles), the L3-resident operand.
//
// All of them are a pure function of the machine (machineProfile),
// fixed once by this package's init and never changed afterwards, so
// every kernel reads them without a gate: package initialization
// happens before any caller exists. Only tests swap other values in,
// through applyProfile.
const (
	// maxMR/maxNR bound the register tile over all micro-kernel
	// implementations; the macro-kernel's accumulator scratch is sized
	// by them.
	maxMR = 8
	maxNR = 6
)

// Active GEMM blocking and register tile.
var kc, mc, nc, mr, nr int

// microKernel applies c[j*ldc+i] -= sum_l ap[l*mr+i]*bp[l*nr+j] to one
// full mr x nr tile of C: the products are accumulated in registers over
// kk packed k-steps and the write-back is one subtraction per element,
// fused into the kernel. It always writes a full tile; the macro-kernel
// stages edge tiles through a dense scratch tile.
var microKernel tileKernel

// tileKernel updates one full register tile of C from kk packed steps
// of an A row panel and a B column panel: the signature the packed
// driver (gemmPacked) runs both the micro-kernel and the GETRF panel
// kernel through.
type tileKernel func(kk int, ap, bp, c []float64, ldc int)

// pmr x pnr is the register tile of the blocked GETRF panel path. It is
// deliberately independent of the GEMM tile: the panel kernel's
// bit-identity contract (separate multiply/subtract rounding, see
// getrf.go) ties it to a specific assembly implementation, so it is
// fixed by the platform registration (8x4 with AVX2, else the portable
// 4x4) and never moves with the GEMM profile.
var (
	pmr = 4
	pnr = 4
)

// gemmMinFlops is the m*n*k product below which the packed path does
// not pay for its packing traffic and the dispatcher keeps the direct
// small path; 32^3 is benched on the shapes RecursiveLU and the CALU
// update generate.
const gemmMinFlops = 32 * 32 * 32

// packedWorthwhile reports whether C (m x n) -= A*B over k should take
// the packed register-tiled path.
func packedWorthwhile(m, n, k int) bool {
	return m >= 4 && n >= 4 && k >= 4 && m*n*k >= gemmMinFlops
}

// trsmBlock is the diagonal-block size of the blocked triangular
// solves: diagonal trsmBlock x trsmBlock systems are solved by the
// naive kernels and everything off-diagonal becomes a GEMM.
const trsmBlock = 32

// panelCrossover is the column count at or below which RecursiveLU
// stops recursing and hands the whole leaf to the blocked micro-panel
// Getrf. It was 16 when the leaves were scalar Getf2; the blocked
// kernel keeps BLAS-3-like reuse up to much wider leaves, so splitting
// below 64 columns only adds recursion overhead.
const panelCrossover = 64

// panelMinArea is the m*n panel area below which the blocked GETRF
// cannot amortize its packing traffic and workspace round trip.
const panelMinArea = 32 * 32

// panelBlockedWorthwhile reports whether an m x n panel factorization
// should take the blocked micro-panel path: it needs at least two
// register rows to tile, more columns than one micro-panel (otherwise
// there is no trailing update to block), and enough area to pay for
// packing.
func panelBlockedWorthwhile(m, n int) bool {
	return m >= 2*pmr && n > pmr && m*n >= panelMinArea
}

// ---------------------------------------------------------------------
// The kernel profile.

// Profile is one complete kernel configuration: the micro-kernel and
// the three blocking levels, plus the dispatch crossovers.
type Profile struct {
	// Kernel names the registered micro-kernel ("portable-4x4" or
	// "avx2-8x6").
	Kernel string
	// MR/NR record the kernel's register tile (informational; the
	// kernel name is authoritative).
	MR, NR int
	// KC/MC/NC are the three blocking levels.
	KC, MC, NC int
	// GemmMinFlops and PanelMinArea report the dispatch crossovers, the
	// gemmMinFlops and panelMinArea constants.
	GemmMinFlops, PanelMinArea int
	// GFLOPS is always 0: no profile is timed. It stays so reports that
	// print it keep compiling.
	GFLOPS float64
}

// microImpl is one registered micro-kernel implementation.
type microImpl struct {
	name   string
	mr, nr int
	fn     func(kk int, ap, bp, c []float64, ldc int)
}

// microImpls is the kernel registry; registerPlatformKernels adds the
// platform's vector kernel to it.
var microImpls = map[string]microImpl{
	"portable-4x4": {name: "portable-4x4", mr: 4, nr: 4, fn: micro4x4},
}

// platformKernel is the micro-kernel the machine profile uses: the
// vector one registerPlatformKernels installed, else the portable one.
var platformKernel = "portable-4x4"

var (
	activeProfile Profile
	// cacheSource names the cache sizes machineProfile used and where
	// they came from.
	cacheSource string
)

// The profile is fixed here, once: the platform kernels are registered
// by an explicit call (this is the package's only init, so no file-name
// init order is involved), then the machine profile is applied.
func init() {
	registerPlatformKernels()
	c, src := probeCaches()
	if err := applyProfile(machineProfile(c)); err != nil {
		panic(err) // machineProfile clamps into applyProfile's ranges
	}
	cacheSource = fmt.Sprintf("%s caches L1 %dK, L2 %dK, L3 %dK", src, c.L1>>10, c.L2>>10, c.L3>>10)
}

// machineProfile is the kernel configuration for a cache hierarchy: the
// platform's micro-kernel, blocked by the Goto residency rules
//
//	kc: an mr x kc A sliver plus a kc x nr B sliver at 3/4 of L1;
//	mc: the mc x kc packed A block at half of L2;
//	nc: the kc x nc packed B block at a quarter of (shared) L3,
//
// each rounded to whole register tiles and clamped to sane bounds.
func machineProfile(c caches) Profile {
	impl := microImpls[platformKernel]
	k := clamp(roundDown(int(c.L1*3/4)/(8*(impl.mr+impl.nr)), 8), 64, 512)
	return Profile{
		Kernel: impl.name, MR: impl.mr, NR: impl.nr,
		KC:           k,
		MC:           clamp(roundDown(int(c.L2/2)/(8*k), 2*impl.mr), 2*impl.mr, 512),
		NC:           clamp(roundDown(int(c.L3/4)/(8*k), 2*impl.nr), 16*impl.nr, 2048),
		GemmMinFlops: gemmMinFlops,
		PanelMinArea: panelMinArea,
	}
}

// applyProfile installs p as the active kernel configuration. The
// workspace free list is flushed so every later checkout is sized for
// the new blocking. init calls it once; otherwise it is the hook tests
// use to sweep profiles, and they must guarantee no kernel is running.
func applyProfile(p Profile) error {
	impl, ok := microImpls[p.Kernel]
	if !ok {
		return &profileError{p.Kernel, "unknown kernel"}
	}
	if p.KC < 16 || p.MC < impl.mr || p.NC < impl.nr ||
		p.KC > 4096 || p.MC > 4096 || p.NC > 8192 {
		return &profileError{p.Kernel, "blocking out of range"}
	}
	wsMu.Lock()
	defer wsMu.Unlock()
	mr, nr = impl.mr, impl.nr
	microKernel = impl.fn
	kc, mc, nc = p.KC, p.MC, p.NC
	p.MR, p.NR = impl.mr, impl.nr
	activeProfile = p
	// Stale-size buffers on the free list would under-fit the new
	// blocking; drop them (putWorkspace also guards, so checked-out
	// buffers returned later are dropped too).
	for i := range wsFree {
		wsFree[i] = nil
	}
	wsFree = wsFree[:0]
	return nil
}

type profileError struct {
	kernel, msg string
}

func (e *profileError) Error() string {
	return "kernel: profile " + e.kernel + ": " + e.msg
}

// ActiveProfile returns the kernel configuration in effect and where
// the cache sizes it was derived from came from (sysfs, the
// conservative defaults, or sysfs with defaults for missing levels).
func ActiveProfile() (Profile, string) {
	wsMu.Lock()
	defer wsMu.Unlock()
	return activeProfile, cacheSource
}

// ---------------------------------------------------------------------
// Cache sizes.

// caches is the cache hierarchy in bytes (per-core L1d/L2, shared L3).
type caches struct {
	L1 int64
	L2 int64
	L3 int64
}

// defaultCaches are the conservative fallback: a small modern x86/arm
// core. Overestimating would oversize the packed blocks and thrash.
var defaultCaches = caches{L1: 32 << 10, L2: 512 << 10, L3: 8 << 20}

// probeCaches returns the cache hierarchy from sysfs, with defaults for
// whatever it does not report, and names the source.
func probeCaches() (caches, string) {
	c := sysfsCaches()
	src := "sysfs"
	switch {
	case c.L1 == 0 && c.L2 == 0 && c.L3 == 0:
		src = "default"
	case c.L1 == 0 || c.L2 == 0 || c.L3 == 0:
		src = "sysfs+default"
	}
	if c.L1 == 0 {
		c.L1 = defaultCaches.L1
	}
	if c.L2 == 0 {
		c.L2 = defaultCaches.L2
	}
	if c.L3 == 0 {
		c.L3 = defaultCaches.L3
	}
	return c, src
}

// sysfsCaches reads /sys/devices/system/cpu/cpu0/cache/index*/ — the
// kernel's own CPUID/ACPI enumeration, so it covers every x86 and arm
// Linux machine without asm.
func sysfsCaches() caches {
	var c caches
	base := "/sys/devices/system/cpu/cpu0/cache"
	entries, err := os.ReadDir(base)
	if err != nil {
		return c
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "index") {
			continue
		}
		dir := filepath.Join(base, e.Name())
		typ := strings.TrimSpace(readSmallFile(filepath.Join(dir, "type")))
		if typ == "Instruction" {
			continue
		}
		level := strings.TrimSpace(readSmallFile(filepath.Join(dir, "level")))
		size := parseCacheSize(strings.TrimSpace(readSmallFile(filepath.Join(dir, "size"))))
		if size <= 0 {
			continue
		}
		switch level {
		case "1":
			c.L1 = size
		case "2":
			c.L2 = size
		case "3":
			c.L3 = size
		}
	}
	return c
}

func readSmallFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return string(b)
}

// parseCacheSize parses the sysfs "size" format: "32K", "1024K", "8M".
func parseCacheSize(s string) int64 {
	if s == "" {
		return 0
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'K':
		mult, s = 1<<10, s[:len(s)-1]
	case 'M':
		mult, s = 1<<20, s[:len(s)-1]
	case 'G':
		mult, s = 1<<30, s[:len(s)-1]
	}
	var n int64
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0
		}
		n = n*10 + int64(r-'0')
	}
	return n * mult
}

func roundDown(v, m int) int {
	if m <= 0 {
		return v
	}
	return v - v%m
}

// roundUp returns the smallest multiple of m that is >= v.
func roundUp(v, m int) int { return (v + m - 1) / m * m }

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
