package core

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/layout"
	"repro/internal/mat"
)

// goldenLU pins FNV-1a hashes of Perm, L and U (Float64bits, little
// endian, column by column) of core.Factor under the hybrid scheduler
// at dratio 0.25 on mat.Random(m, n, seed 7). The values were recorded
// at the commit BEFORE the trailing update moved into the FMA kernel
// (fused write-back, shared A panels, vector triangular solves,
// column-order swaps), so this test checks — rather than asserts — that
// those changes moved no result bit. They hold for the AVX2+FMA
// kernels at any blocking with kc >= 64 (every product here is at most
// 64 deep, so no accumulator is ever flushed mid-sum); the portable
// kernel rounds differently and is skipped.
var goldenLU = []struct {
	m, n, b    int
	kind       layout.Kind
	workers    int
	perm, l, u uint64
}{
	{200, 200, 32, layout.CM, 1, 0x49bbeb00e31c3905, 0xd0a08db43a979256, 0x2e17c01a32847f79},
	{200, 200, 32, layout.CM, 2, 0x49bbeb00e31c3905, 0xd0a08db43a979256, 0x2e17c01a32847f79},
	{200, 200, 32, layout.CM, 3, 0x49bbeb00e31c3905, 0xd0a08db43a979256, 0x2e17c01a32847f79},
	{200, 200, 32, layout.CM, 4, 0x1349177d6a61e1a5, 0x62265bbe559e814f, 0xf8d4a85a72ccfd4e},
	{200, 200, 32, layout.BCL, 1, 0x49bbeb00e31c3905, 0xa33efa66e04eaa76, 0x080799cb14e57027},
	{200, 200, 32, layout.BCL, 2, 0x49bbeb00e31c3905, 0xa33efa66e04eaa76, 0x080799cb14e57027},
	{200, 200, 32, layout.BCL, 3, 0x49bbeb00e31c3905, 0xa33efa66e04eaa76, 0x080799cb14e57027},
	{200, 200, 32, layout.BCL, 4, 0x1349177d6a61e1a5, 0xc701861e5bbb6ede, 0x7c6440961f9f5e9e},
	{200, 200, 32, layout.TwoLevel, 1, 0x49bbeb00e31c3905, 0x48148d9b0254d0ce, 0x60f39e83624bbb73},
	{200, 200, 32, layout.TwoLevel, 2, 0x49bbeb00e31c3905, 0x48148d9b0254d0ce, 0x60f39e83624bbb73},
	{200, 200, 32, layout.TwoLevel, 3, 0x49bbeb00e31c3905, 0x48148d9b0254d0ce, 0x60f39e83624bbb73},
	{200, 200, 32, layout.TwoLevel, 4, 0x1349177d6a61e1a5, 0xd9cafa3d2f51d150, 0x80ccb3c5d48d8008},
	{333, 333, 40, layout.CM, 1, 0x7a10dada3142375a, 0xbdd282e264669cf0, 0x87435615e5756950},
	{333, 333, 40, layout.CM, 2, 0x7a10dada3142375a, 0xbdd282e264669cf0, 0x87435615e5756950},
	{333, 333, 40, layout.CM, 3, 0x7a10dada3142375a, 0xbdd282e264669cf0, 0x87435615e5756950},
	{333, 333, 40, layout.CM, 4, 0xe2fc0cde261b8f92, 0xc1a224b547eec1e0, 0x463a8faaf528b9fb},
	{333, 333, 40, layout.BCL, 1, 0x7a10dada3142375a, 0x1c5479732081a468, 0x1ae7d4864cbbf786},
	{333, 333, 40, layout.BCL, 2, 0x7a10dada3142375a, 0x1c5479732081a468, 0x1ae7d4864cbbf786},
	{333, 333, 40, layout.BCL, 3, 0x7a10dada3142375a, 0x1c5479732081a468, 0x1ae7d4864cbbf786},
	{333, 333, 40, layout.BCL, 4, 0xe2fc0cde261b8f92, 0x057fc54ec420c66e, 0x744a73127a77ea15},
	{333, 333, 40, layout.TwoLevel, 1, 0x7a10dada3142375a, 0x2e3ca98a16d04556, 0x641b2f3d51effbe5},
	{333, 333, 40, layout.TwoLevel, 2, 0x7a10dada3142375a, 0x2e3ca98a16d04556, 0x641b2f3d51effbe5},
	{333, 333, 40, layout.TwoLevel, 3, 0x7a10dada3142375a, 0x2e3ca98a16d04556, 0x641b2f3d51effbe5},
	{333, 333, 40, layout.TwoLevel, 4, 0xe2fc0cde261b8f92, 0x9c18503866cbc0cb, 0xbc4ec57e549b2e1e},
	{640, 192, 64, layout.CM, 1, 0x74fecf36e572cc85, 0xe873051e57faa391, 0x5b7dd9c3a3a55338},
	{640, 192, 64, layout.CM, 2, 0x74fecf36e572cc85, 0xe873051e57faa391, 0x5b7dd9c3a3a55338},
	{640, 192, 64, layout.CM, 3, 0x74fecf36e572cc85, 0xe873051e57faa391, 0x5b7dd9c3a3a55338},
	{640, 192, 64, layout.CM, 4, 0x169f7b1c15f96e15, 0x41f87ad59ddc5fb5, 0x4ef61caa6800ee51},
	{640, 192, 64, layout.BCL, 1, 0x74fecf36e572cc85, 0xe873051e57faa391, 0x5b7dd9c3a3a55338},
	{640, 192, 64, layout.BCL, 2, 0x74fecf36e572cc85, 0xe873051e57faa391, 0x5b7dd9c3a3a55338},
	{640, 192, 64, layout.BCL, 3, 0x74fecf36e572cc85, 0xe873051e57faa391, 0x5b7dd9c3a3a55338},
	{640, 192, 64, layout.BCL, 4, 0x169f7b1c15f96e15, 0x41f87ad59ddc5fb5, 0x4ef61caa6800ee51},
	{640, 192, 64, layout.TwoLevel, 1, 0x74fecf36e572cc85, 0xe873051e57faa391, 0x5b7dd9c3a3a55338},
	{640, 192, 64, layout.TwoLevel, 2, 0x74fecf36e572cc85, 0xe873051e57faa391, 0x5b7dd9c3a3a55338},
	{640, 192, 64, layout.TwoLevel, 3, 0x74fecf36e572cc85, 0xe873051e57faa391, 0x5b7dd9c3a3a55338},
	{640, 192, 64, layout.TwoLevel, 4, 0x169f7b1c15f96e15, 0x41f87ad59ddc5fb5, 0x4ef61caa6800ee51},
	{257, 300, 48, layout.CM, 1, 0xf460f78ca0ea9efa, 0x4b272da053c8d03d, 0x09f699843d2ff9f6},
	{257, 300, 48, layout.CM, 2, 0xf460f78ca0ea9efa, 0x4b272da053c8d03d, 0x09f699843d2ff9f6},
	{257, 300, 48, layout.CM, 3, 0xf460f78ca0ea9efa, 0x4b272da053c8d03d, 0x09f699843d2ff9f6},
	{257, 300, 48, layout.CM, 4, 0x269a152fda46bec2, 0x163665eddd664f90, 0xaf6d866b15d6e6ea},
	{257, 300, 48, layout.BCL, 1, 0xf460f78ca0ea9efa, 0x4b272da053c8d03d, 0x0c17f0ab339526eb},
	{257, 300, 48, layout.BCL, 2, 0xf460f78ca0ea9efa, 0x4b272da053c8d03d, 0x0c17f0ab339526eb},
	{257, 300, 48, layout.BCL, 3, 0xf460f78ca0ea9efa, 0x4b272da053c8d03d, 0x0c17f0ab339526eb},
	{257, 300, 48, layout.BCL, 4, 0x269a152fda46bec2, 0x163665eddd664f90, 0xa0dc8ced98edd0c3},
	{257, 300, 48, layout.TwoLevel, 1, 0xf460f78ca0ea9efa, 0x4b272da053c8d03d, 0xc67a27ffe6ea7370},
	{257, 300, 48, layout.TwoLevel, 2, 0xf460f78ca0ea9efa, 0x4b272da053c8d03d, 0xc67a27ffe6ea7370},
	{257, 300, 48, layout.TwoLevel, 3, 0xf460f78ca0ea9efa, 0x4b272da053c8d03d, 0xc67a27ffe6ea7370},
	{257, 300, 48, layout.TwoLevel, 4, 0x269a152fda46bec2, 0x163665eddd664f90, 0xdeb63f57688e2cab},
	// A tall shape whose tournament leaves stage many-block storage runs:
	// 24 block rows, one leaf per panel at W <= 2 (a 1 x W grid), whose
	// chunk CM and BCL copy as one run; at W = 4 CM still copies each
	// leaf as one run, BCL and 2l-BL block by block. Recorded at the
	// commit before the leaves factored their staging in place and
	// staged by storage runs.
	{1536, 128, 64, layout.CM, 1, 0x9672f42d06d5f4ad, 0xdce49a33f092578e, 0x74338050f2a4186a},
	{1536, 128, 64, layout.CM, 2, 0x9672f42d06d5f4ad, 0xdce49a33f092578e, 0x74338050f2a4186a},
	{1536, 128, 64, layout.CM, 4, 0xb8daa534f6cafeb5, 0x7b2d04f1fa83cede, 0x6492133ed57c779a},
	{1536, 128, 64, layout.BCL, 1, 0x9672f42d06d5f4ad, 0xdce49a33f092578e, 0x74338050f2a4186a},
	{1536, 128, 64, layout.BCL, 2, 0x9672f42d06d5f4ad, 0xdce49a33f092578e, 0x74338050f2a4186a},
	{1536, 128, 64, layout.BCL, 4, 0xb8daa534f6cafeb5, 0x7b2d04f1fa83cede, 0x6492133ed57c779a},
	{1536, 128, 64, layout.TwoLevel, 1, 0x9672f42d06d5f4ad, 0xdce49a33f092578e, 0x74338050f2a4186a},
	{1536, 128, 64, layout.TwoLevel, 2, 0x9672f42d06d5f4ad, 0xdce49a33f092578e, 0x74338050f2a4186a},
	{1536, 128, 64, layout.TwoLevel, 4, 0xb8daa534f6cafeb5, 0x7b2d04f1fa83cede, 0x6492133ed57c779a},
}

func hashWord(h hash.Hash64, u uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], u)
	h.Write(buf[:])
}

func hashDense(d *mat.Dense) uint64 {
	h := fnv.New64a()
	for j := 0; j < d.Cols; j++ {
		for i := 0; i < d.Rows; i++ {
			hashWord(h, math.Float64bits(d.Data[j*d.Stride+i]))
		}
	}
	return h.Sum64()
}

func hashInts(p []int) uint64 {
	h := fnv.New64a()
	for _, v := range p {
		hashWord(h, uint64(v))
	}
	return h.Sum64()
}

// skipOffGoldenKernels skips where the golden hashes do not apply.
func skipOffGoldenKernels(t *testing.T) {
	if p, _ := kernel.ActiveProfile(); !strings.HasPrefix(p.Kernel, "avx2-") || p.KC < 64 {
		t.Skipf("golden hashes are for the AVX2+FMA kernels with kc >= 64; active profile %s kc=%d", p.Kernel, p.KC)
	}
}

func TestFactorGoldenBits(t *testing.T) {
	skipOffGoldenKernels(t)
	inputs := map[[2]int]*mat.Dense{}
	for _, g := range goldenLU {
		a := inputs[[2]int{g.m, g.n}]
		if a == nil {
			a = mat.Random(g.m, g.n, rand.New(rand.NewSource(7)))
			inputs[[2]int{g.m, g.n}] = a
		}
		f, err := Factor(a, Options{Layout: g.kind, Block: g.b, Workers: g.workers, Scheduler: ScheduleHybrid, DynamicRatio: 0.25})
		if err != nil {
			t.Fatal(err)
		}
		if perm, l, u := hashInts(f.Perm), hashDense(f.L), hashDense(f.U); perm != g.perm || l != g.l || u != g.u {
			t.Errorf("%dx%d b=%d %s w=%d: perm %016x L %016x U %016x, recorded %016x %016x %016x",
				g.m, g.n, g.b, g.kind, g.workers, perm, l, u, g.perm, g.l, g.u)
		}
	}
}

// goldenGEPP pins the same hashes for FactorGEPP on the same inputs
// (always column major; the default hybrid scheduler), recorded when
// the baseline still ran through a package of its own on the dynamic
// scheduler.
var goldenGEPP = []struct {
	m, n, b    int
	workers    int
	perm, l, u uint64
}{
	{200, 200, 32, 1, 0x49bbeb00e31c3905, 0x48148d9b0254d0ce, 0x60f39e83624bbb73},
	{200, 200, 32, 2, 0x49bbeb00e31c3905, 0x48148d9b0254d0ce, 0x60f39e83624bbb73},
	{200, 200, 32, 3, 0x49bbeb00e31c3905, 0x48148d9b0254d0ce, 0x60f39e83624bbb73},
	{200, 200, 32, 4, 0x49bbeb00e31c3905, 0x48148d9b0254d0ce, 0x60f39e83624bbb73},
	{333, 333, 40, 1, 0x7a10dada3142375a, 0xd8123086509c8ea5, 0xcd9a7ac9ca7b5a9a},
	{333, 333, 40, 2, 0x7a10dada3142375a, 0xd8123086509c8ea5, 0xcd9a7ac9ca7b5a9a},
	{333, 333, 40, 3, 0x7a10dada3142375a, 0xd8123086509c8ea5, 0xcd9a7ac9ca7b5a9a},
	{333, 333, 40, 4, 0x7a10dada3142375a, 0xd8123086509c8ea5, 0xcd9a7ac9ca7b5a9a},
	{640, 192, 64, 1, 0x74fecf36e572cc85, 0x9f7243115335dd71, 0x79c349b4a6562fd1},
	{640, 192, 64, 2, 0x74fecf36e572cc85, 0x9f7243115335dd71, 0x79c349b4a6562fd1},
	{640, 192, 64, 3, 0x74fecf36e572cc85, 0x9f7243115335dd71, 0x79c349b4a6562fd1},
	{640, 192, 64, 4, 0x74fecf36e572cc85, 0x9f7243115335dd71, 0x79c349b4a6562fd1},
	{257, 300, 48, 1, 0xf460f78ca0ea9efa, 0x07e1fea10907f911, 0x66c8fa7ef6339bc3},
	{257, 300, 48, 2, 0xf460f78ca0ea9efa, 0x07e1fea10907f911, 0x66c8fa7ef6339bc3},
	{257, 300, 48, 3, 0xf460f78ca0ea9efa, 0x07e1fea10907f911, 0x66c8fa7ef6339bc3},
	{257, 300, 48, 4, 0xf460f78ca0ea9efa, 0x07e1fea10907f911, 0x66c8fa7ef6339bc3},
}

func TestGEPPGoldenBits(t *testing.T) {
	skipOffGoldenKernels(t)
	for _, g := range goldenGEPP {
		a := mat.Random(g.m, g.n, rand.New(rand.NewSource(7)))
		f, err := FactorGEPP(a, Options{Block: g.b, Workers: g.workers})
		if err != nil {
			t.Fatal(err)
		}
		if perm, l, u := hashInts(f.Perm), hashDense(f.L), hashDense(f.U); perm != g.perm || l != g.l || u != g.u {
			t.Errorf("GEPP %dx%d b=%d w=%d: perm %016x L %016x U %016x, recorded %016x %016x %016x",
				g.m, g.n, g.b, g.workers, perm, l, u, g.perm, g.l, g.u)
		}
	}
}
