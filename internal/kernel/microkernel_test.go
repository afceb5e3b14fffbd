package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// refPackedGemm spells out, element by element, the arithmetic the
// packed path performed when the micro-kernel filled an accumulator
// tile and a separate scalar loop subtracted it from C: within each
// kc-deep block the products are summed from zero in k order — one
// fused multiply-add per step for the vector kernels, the portable
// kernel's own multiply-and-add expression for it — and the block's
// sum is subtracted from C with one more rounding. The fused write-back
// must reproduce it bit for bit.
func refPackedGemm(c, a, b View, fused bool, kc int) {
	for j := 0; j < c.Cols; j++ {
		for pc := 0; pc < a.Cols; pc += kc {
			for i := 0; i < c.Rows; i++ {
				acc := 0.0
				for l := pc; l < min(pc+kc, a.Cols); l++ {
					x, y := a.Data[l*a.Stride+i], b.Data[j*b.Stride+l]
					if fused {
						acc = math.FMA(x, y, acc)
					} else {
						// Written like the portable kernel's own step, so a
						// compiler that fuses one (arm64) fuses both.
						acc += x * y
					}
				}
				c.Data[j*c.Stride+i] -= acc
			}
		}
	}
}

func sameBits(t *testing.T, what string, got, want View) {
	t.Helper()
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: backing[%d] = %x, reference %x", what, i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
		}
	}
}

// kernelProfiles is one small-blocking profile per registered
// micro-kernel, so modest shapes cross every blocking level.
func kernelProfiles() []Profile {
	var out []Profile
	for name, impl := range microImpls {
		out = append(out, Profile{Kernel: name, MR: impl.mr, NR: impl.nr, KC: 24, MC: 4 * impl.mr, NC: 5 * impl.nr})
	}
	return out
}

// TestFusedWriteBackTile drives every registered micro-kernel on single
// tiles: k = 1, odd and even k, dense and strided C. The backing
// comparison also proves nothing outside the tile is written.
func TestFusedWriteBackTile(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for name, impl := range microImpls {
		fused := strings.HasPrefix(name, "avx2-")
		for _, kk := range []int{1, 2, 3, 7, 64, 65} {
			for _, ldc := range []int{impl.mr, impl.mr + 3, 100} {
				ap := randView(rng, impl.mr*kk, 1).Data
				bp := randView(rng, impl.nr*kk, 1).Data
				c := View{Rows: impl.mr, Cols: impl.nr, Stride: ldc, Data: randView(rng, ldc*impl.nr+5, 1).Data}
				want := cloneView(c)
				// The packed panels seen as plain operands: A(i,l) = ap[l*mr+i],
				// B(l,j) = bp[l*nr+j].
				a := View{Rows: impl.mr, Cols: kk, Stride: impl.mr, Data: ap}
				b := View{Rows: kk, Cols: impl.nr, Stride: kk, Data: make([]float64, kk*impl.nr)}
				for l := 0; l < kk; l++ {
					for j := 0; j < impl.nr; j++ {
						b.Data[j*kk+l] = bp[l*impl.nr+j]
					}
				}
				impl.fn(kk, ap, bp, c.Data, ldc)
				refPackedGemm(want, a, b, fused, kk)
				sameBits(t, fmt.Sprintf("%s kk=%d ldc=%d", name, kk, ldc), c, want)
			}
		}
	}
}

// TestFusedWriteBackMatchesReference runs the whole packed driver under
// every registered kernel — the portable one included, forced through
// the profile — over shapes with ragged row and column edge tiles,
// depths that split into several kc blocks, and strided views.
func TestFusedWriteBackMatchesReference(t *testing.T) {
	shapes := [][3]int{{1, 1, 1}, {8, 6, 1}, {9, 7, 3}, {37, 29, 25}, {64, 64, 64}, {67, 45, 53}, {130, 31, 7}}
	for _, p := range kernelProfiles() {
		p := p
		t.Run(p.Kernel, func(t *testing.T) {
			withProfile(t, p, func() {
				fused := strings.HasPrefix(p.Kernel, "avx2-")
				rng := rand.New(rand.NewSource(37))
				for _, s := range shapes {
					a := randView(rng, s[0], s[2])
					b := randView(rng, s[2], s[1])
					c := randView(rng, s[0], s[1])
					want := cloneView(c)
					gemmPacked(c, a, b, false, nil, mr, nr, microKernel)
					refPackedGemm(want, a, b, fused, p.KC)
					sameBits(t, fmt.Sprintf("%dx%dx%d", s[0], s[1], s[2]), c, want)
				}
			})
		})
	}
}
