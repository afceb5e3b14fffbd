package kernel

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// withProfile applies p for the duration of f, restoring the previously
// active profile afterwards.
func withProfile(t *testing.T, p Profile, f func()) {
	t.Helper()
	prev, _ := ActiveProfile()
	if err := applyProfile(p); err != nil {
		t.Fatalf("applyProfile(%+v): %v", p, err)
	}
	defer func() {
		if err := applyProfile(prev); err != nil {
			t.Fatalf("restore profile: %v", err)
		}
	}()
	f()
}

// withPortablePanel installs the portable panel layer for the duration
// of f — the generic panel kernel, rank-1 update, column scaling and
// pivot search, no TRSM tile kernel, and the 4x4 panel tile — restoring
// the registered set afterwards. Where the AVX2 set is registered, this
// is how the Go loops every other target runs take part in the
// bit-identity tests.
func withPortablePanel(f func()) {
	kern, r1, scale, imax, tile := panelKernel, rank1Sub, scaleVec, idamaxRange, trsmLowerUnitTile
	mr, nr := pmr, pnr
	defer func() {
		panelKernel, rank1Sub, scaleVec, idamaxRange, trsmLowerUnitTile = kern, r1, scale, imax, tile
		pmr, pnr = mr, nr
	}()
	panelKernel, rank1Sub, scaleVec, idamaxRange, trsmLowerUnitTile = panelKernelGeneric, rank1SubGeneric, scaleVecGeneric, idamaxRangeGeneric, nil
	pmr, pnr = 4, 4
	f()
}

// testProfiles is the grid the bit-identity and accuracy tests sweep,
// keyed by subtest name: every registered micro-kernel at the machine's
// blocking, at an odd small one, and at each blocking the retired
// per-process search used to pick on the development box.
func testProfiles() map[string]Profile {
	machine, _ := ActiveProfile()
	out := map[string]Profile{}
	for name, impl := range microImpls {
		for _, blk := range [][3]int{{machine.KC, machine.MC, machine.NC}, {72, 48, 96}, {256, 128, 512}, {328, 192, 2048}, {328, 384, 2048}} {
			p := Profile{Kernel: name, MR: impl.mr, NR: impl.nr, KC: blk[0], MC: blk[1], NC: blk[2]}
			out[fmt.Sprintf("%s-kc%d-mc%d-nc%d", p.Kernel, p.KC, p.MC, p.NC)] = p
		}
	}
	return out
}

// TestGetrfBitIdenticalAcrossProfiles pins the panel layer's invariant
// under any kernel profile: whatever GEMM profile is active — any registered
// micro-kernel, any blocking — the blocked Getrf produces pivots and
// values EXACTLY equal to scalar Getf2, because the panel tile (pmr x
// pnr) and its separate multiply/subtract rounding never move with the
// profile. The portable-panel case runs the same check on the portable
// panel layer.
func TestGetrfBitIdenticalAcrossProfiles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := randView(rng, 193, 61)
	check := func(t *testing.T) {
		blocked := cloneView(src)
		scalar := cloneView(src)
		pivB := make([]int, 61)
		pivS := make([]int, 61)
		if err := Getrf(blocked, pivB); err != nil {
			t.Fatal(err)
		}
		if err := Getf2(scalar, pivS); err != nil {
			t.Fatal(err)
		}
		for i := range pivB {
			if pivB[i] != pivS[i] {
				t.Fatalf("pivot %d: blocked %d scalar %d", i, pivB[i], pivS[i])
			}
		}
		if d := maxAbsDiffBacking(blocked, scalar); d != 0 {
			t.Fatalf("values diverge: max |diff| = %g (want exactly 0)", d)
		}
	}
	for name, p := range testProfiles() {
		t.Run(name, func(t *testing.T) {
			withProfile(t, p, func() { check(t) })
		})
	}
	t.Run("portable-panel", func(t *testing.T) {
		withPortablePanel(func() { check(t) })
	})
}

// TestGemmAccurateAcrossProfiles sweeps the same profile grid over the
// packed GEMM dispatcher against the naive oracle. Packed results vary
// bitwise with kc (the accumulator flushes per kc block), so this is a
// tolerance check, not bit-identity.
func TestGemmAccurateAcrossProfiles(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randView(rng, 137, 93)
	b := randView(rng, 93, 121)
	c0 := randView(rng, 137, 121)
	want := cloneView(c0)
	gemmNaive(want, a, b)
	for name, p := range testProfiles() {
		t.Run(name, func(t *testing.T) {
			withProfile(t, p, func() {
				c := cloneView(c0)
				Gemm(c, a, b)
				if d := maxAbsDiffBacking(c, want); d > gemmTol(want) {
					t.Fatalf("max |diff| = %g > tol %g", d, gemmTol(want))
				}
			})
		})
	}
}

// TestApplyProfileRejectsGarbage: unknown kernels and out-of-range
// blocking must be refused, leaving the active configuration untouched.
func TestApplyProfileRejectsGarbage(t *testing.T) {
	before, _ := ActiveProfile()
	bad := []Profile{before, before, before}
	bad[0].Kernel = "no-such-kernel"
	bad[1].KC = 8
	bad[2].NC = 100000
	for _, p := range bad {
		if err := applyProfile(p); err == nil {
			t.Errorf("applyProfile(%+v) accepted garbage", p)
		}
	}
	after, _ := ActiveProfile()
	if before != after {
		t.Fatalf("rejected profiles mutated the active one: %+v -> %+v", before, after)
	}
}

// TestMachineProfileFromCaches pins the one blocking rule over cache
// geometries from tiny to absurd: the platform's micro-kernel with the
// Goto residency formulas, every result accepted by applyProfile.
func TestMachineProfileFromCaches(t *testing.T) {
	prev, _ := ActiveProfile()
	defer applyProfile(prev)
	cases := []struct {
		c        caches
		avx2     [3]int // kc, mc, nc for avx2-8x6
		portable [3]int // kc, mc, nc for portable-4x4
	}{
		{defaultCaches, [3]int{216, 144, 1212}, [3]int{384, 80, 680}},
		{caches{L1: 48 << 10, L2: 2 << 20, L3: 300 << 20}, [3]int{328, 384, 2048}, [3]int{512, 256, 2048}},
		{caches{L1: 16 << 10, L2: 128 << 10, L3: 1 << 20}, [3]int{104, 64, 312}, [3]int{192, 40, 168}},
		{caches{L1: 1, L2: 1, L3: 1}, [3]int{64, 16, 96}, [3]int{64, 8, 64}},
		{caches{L1: 1 << 20, L2: 64 << 20, L3: 512 << 20}, [3]int{512, 512, 2048}, [3]int{512, 512, 2048}},
	}
	for _, tc := range cases {
		p := machineProfile(tc.c)
		want := tc.portable
		if platformKernel == "avx2-8x6" {
			want = tc.avx2
		}
		if p.Kernel != platformKernel || [3]int{p.KC, p.MC, p.NC} != want {
			t.Errorf("caches %+v: %s kc/mc/nc %d/%d/%d, want %s %v", tc.c, p.Kernel, p.KC, p.MC, p.NC, platformKernel, want)
		}
		if p.GemmMinFlops != gemmMinFlops || p.PanelMinArea != panelMinArea || p.GFLOPS != 0 {
			t.Errorf("caches %+v: crossovers %d/%d, GFLOPS %g", tc.c, p.GemmMinFlops, p.PanelMinArea, p.GFLOPS)
		}
		if err := applyProfile(p); err != nil {
			t.Errorf("caches %+v: applyProfile rejected %+v: %v", tc.c, p, err)
		}
	}
}

func TestParseCacheSize(t *testing.T) {
	cases := map[string]int64{
		"32K": 32 << 10, "1024K": 1 << 20, "8M": 8 << 20,
		"1G": 1 << 30, "977": 977, "": 0, "bogus": 0, "12Q": 0,
	}
	for in, want := range cases {
		if got := parseCacheSize(in); got != want {
			t.Errorf("parseCacheSize(%q) = %d, want %d", in, got, want)
		}
	}
}

// TestProfileFixedAcrossProcesses re-executes the test binary twice
// with HOME and XDG_CACHE_HOME pointed at an empty directory: both
// children report the same profile as this process, and after a packed
// Gemm the directory is still empty — the kernel package reads no
// environment and writes no file.
func TestProfileFixedAcrossProcesses(t *testing.T) {
	if os.Getenv("HSD_PROFILE_HELPER") == "1" {
		rng := rand.New(rand.NewSource(3))
		Gemm(randView(rng, 130, 120), randView(rng, 130, 70), randView(rng, 70, 120))
		p, src := ActiveProfile()
		fmt.Printf("profile: %+v | %s\n", p, src)
		os.Exit(0)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	home := t.TempDir()
	p, src := ActiveProfile()
	want := fmt.Sprintf("profile: %+v | %s", p, src)
	for run := 0; run < 2; run++ {
		cmd := exec.Command(exe, "-test.run", "^TestProfileFixedAcrossProcesses$")
		cmd.Env = append(os.Environ(), "HSD_PROFILE_HELPER=1", "HOME="+home, "XDG_CACHE_HOME="+home)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("child %d: %v\n%s", run, err, out)
		}
		if !strings.Contains(string(out), want+"\n") {
			t.Fatalf("child %d reported\n%s\nwant %q", run, out, want)
		}
	}
	if entries, err := os.ReadDir(home); err != nil || len(entries) != 0 {
		t.Fatalf("cache home after two children: %v entries, err %v", len(entries), err)
	}
}
