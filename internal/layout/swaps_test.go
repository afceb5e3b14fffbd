package layout

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// swapGrids are the worker grids 1x1, 1x2, 2x2 and 2x3.
var swapGrids = []int{1, 2, 4, 6}

// randomSwaps draws n swaps over rows [0,m) shaped like a panel step's:
// mostly (base+t, anywhere below), salted with repeated rows, a swap
// undone at once and r1 == r2.
func randomSwaps(rng *rand.Rand, m, n int) [][2]int {
	var swaps [][2]int
	for t := 0; t < n; t++ {
		r1 := t % m
		swaps = append(swaps, [2]int{r1, r1 + rng.Intn(m-r1)})
		switch rng.Intn(5) {
		case 0:
			swaps = append(swaps, swaps[len(swaps)-1]) // undo it
		case 1:
			swaps = append(swaps, [2]int{r1, r1}) // no-op
		case 2:
			swaps = append(swaps, [2]int{rng.Intn(m), r1}) // r1 again, as the second row
		}
	}
	return swaps
}

// TestApplySwapsMatchesSwapRows: on every layout, grid and a shape
// whose last block row and column are ragged, ApplySwaps must leave the
// block column exactly as the SwapRows sequence does and touch no
// other — for lists longer than one resolve chunk, short ones and the
// empty one.
func TestApplySwapsMatchesSwapRows(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, kind := range allKinds {
		for _, w := range swapGrids {
			for _, shape := range [][3]int{{45, 22, 4}, {64, 64, 16}, {13, 9, 5}} {
				m, n, b := shape[0], shape[1], shape[2]
				src := mat.Random(m, n, rng)
				_, nb := New(kind, src, b, NewGrid(w)).Blocks()
				for _, count := range []int{0, 1, 7, swapChunk, 2*swapChunk + 9} {
					jb := rng.Intn(nb)
					swaps := randomSwaps(rng, m, count)
					got := New(kind, src, b, NewGrid(w))
					want := New(kind, src, b, NewGrid(w))
					ApplySwaps(got, jb, swaps)
					for _, s := range swaps {
						want.SwapRows(jb, s[0], s[1])
					}
					sameBits(t, fmt.Sprintf("%s W=%d %dx%d b=%d jb=%d swaps=%d", kind, w, m, n, b, jb, len(swaps)), got.ToDense(), want.ToDense())
				}
			}
		}
	}
}

// TestApplyLeftSwapsMatchesSwapRows: the deferred left application is
// step k's list on every block column j < k, in step order — serial
// below the parallel cutoff and forked above it, with more block
// columns than lanes and fewer.
func TestApplyLeftSwapsMatchesSwapRows(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, kind := range allKinds {
		for _, w := range swapGrids {
			for _, shape := range [][3]int{{37, 30, 4}, {700, 400, 64}, {520, 1100, 500}} {
				m, n, b := shape[0], shape[1], shape[2]
				src := mat.Random(m, n, rng)
				got := New(kind, src, b, NewGrid(w))
				want := New(kind, src, b, NewGrid(w))
				mb, nb := got.Blocks()
				steps := make([][][2]int, min(mb, nb))
				for k := range steps {
					steps[k] = randomSwaps(rng, m, min(b, 6))
				}
				ApplyLeftSwaps(got, steps)
				for k, swaps := range steps {
					for j := 0; j < k; j++ {
						for _, s := range swaps {
							want.SwapRows(j, s[0], s[1])
						}
					}
				}
				sameBits(t, fmt.Sprintf("%s W=%d %dx%d b=%d", kind, w, m, n, b), got.ToDense(), want.ToDense())
			}
		}
	}
	// No steps, one step: nothing lies to the left of anything.
	l := New(BCL, mat.Random(8, 8, rng), 4, NewGrid(2))
	before := l.ToDense()
	ApplyLeftSwaps(l, nil)
	ApplyLeftSwaps(l, [][][2]int{{{0, 5}}})
	sameBits(t, "no left columns", l.ToDense(), before)
}
