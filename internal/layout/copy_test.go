package layout

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/kernel"
	"repro/internal/mat"
)

// The element-wise loops the bulk walker replaced live on here as the
// oracles it is pinned against, bit for bit.

// oraclePack is the old copy-in: every element of every block of l must
// be the element of src it stands for.
func oraclePack(t *testing.T, l Layout, src *mat.Dense) {
	t.Helper()
	_, _, b := l.Dims()
	mb, nb := l.Blocks()
	for i := 0; i < mb; i++ {
		for j := 0; j < nb; j++ {
			v := l.Block(i, j)
			if v.Rows != min(b, src.Rows-i*b) || v.Cols != min(b, src.Cols-j*b) {
				t.Fatalf("block (%d,%d) is %dx%d", i, j, v.Rows, v.Cols)
			}
			for jj := 0; jj < v.Cols; jj++ {
				for ii := 0; ii < v.Rows; ii++ {
					got, want := v.Data[jj*v.Stride+ii], src.At(i*b+ii, j*b+jj)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("block (%d,%d) element (%d,%d): %x, want %x", i, j, ii, jj,
							math.Float64bits(got), math.Float64bits(want))
					}
				}
			}
		}
	}
}

// oracleToDense is the old copy-out.
func oracleToDense(l Layout) *mat.Dense {
	m, n, b := l.Dims()
	mb, nb := l.Blocks()
	out := mat.New(m, n)
	for i := 0; i < mb; i++ {
		for j := 0; j < nb; j++ {
			v := l.Block(i, j)
			for jj := 0; jj < v.Cols; jj++ {
				for ii := 0; ii < v.Rows; ii++ {
					out.Set(i*b+ii, j*b+jj, v.Data[jj*v.Stride+ii])
				}
			}
		}
	}
	return out
}

// oracleEncode is the old serializer: append one float at a time in
// block-iteration order.
func oracleEncode(l Layout) []byte {
	m, n, b := l.Dims()
	g := l.Grid()
	out := make([]byte, serializeHdrLen)
	copy(out, serializeMagic)
	out[4] = serializeVersion
	out[5] = byte(l.Kind())
	le := binary.LittleEndian
	le.PutUint32(out[6:], uint32(m))
	le.PutUint32(out[10:], uint32(n))
	le.PutUint32(out[14:], uint32(b))
	le.PutUint32(out[18:], uint32(g.PR))
	le.PutUint32(out[22:], uint32(g.PC))
	mb, nb := l.Blocks()
	for i := 0; i < mb; i++ {
		for j := 0; j < nb; j++ {
			v := l.Block(i, j)
			for jj := 0; jj < v.Cols; jj++ {
				for ii := 0; ii < v.Rows; ii++ {
					out = le.AppendUint64(out, math.Float64bits(v.Data[jj*v.Stride+ii]))
				}
			}
		}
	}
	return out
}

func sameBits(t *testing.T, what string, got, want *mat.Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for j := 0; j < want.Cols; j++ {
		for i := 0; i < want.Rows; i++ {
			if g, w := math.Float64bits(got.At(i, j)), math.Float64bits(want.At(i, j)); g != w {
				t.Fatalf("%s: (%d,%d) = %x, want %x", what, i, j, g, w)
			}
		}
	}
}

// hostile returns an m x n matrix of random values salted with the
// floats a copy could plausibly mangle: -0, infinities, NaNs with
// distinct payloads (one signalling) and denormals.
func hostile(m, n int, seed int64) *mat.Dense {
	rng := rand.New(rand.NewSource(seed))
	a := mat.Random(m, n, rng)
	specials := []float64{
		math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8dead0000beef),
		math.Float64frombits(0x7ff0000000000001), // signalling NaN
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
	}
	for k := range a.Data {
		if rng.Intn(4) == 0 {
			a.Data[k] = specials[rng.Intn(len(specials))]
		}
	}
	return a
}

// bulkCases spans ragged shapes (m<n, m>n, b>m, b∤m, 1x1) on both
// sides of the parallel cutoff; the last four fork.
var bulkCases = []struct{ m, n, b int }{
	{1, 1, 1}, {1, 1, 8}, {7, 13, 4}, {13, 7, 4}, {5, 9, 8}, {64, 64, 16}, {30, 20, 7},
	{600, 450, 64}, {450, 600, 37}, {40, 7000, 64}, {7000, 40, 33},
}

var bulkGrids = []Grid{{1, 1}, {1, 2}, {2, 2}, {2, 3}}

// bulkProcs are the GOMAXPROCS values every bulk case runs under: one,
// so an above-cutoff walk runs serially as on a one-CPU host, and four,
// so it really runs concurrently (and under -race) whatever machine the
// test is on.
var bulkProcs = []int{1, 4}

// forEachBulkCase runs f over kinds x shapes x grids x bulkProcs.
func forEachBulkCase(t *testing.T, f func(t *testing.T, kind Kind, src *mat.Dense, b int, g Grid)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, kind := range allKinds {
		for ci, c := range bulkCases {
			src := hostile(c.m, c.n, int64(ci+1))
			for _, g := range bulkGrids {
				t.Run(fmt.Sprintf("%v/%dx%d_b%d/%dx%d", kind, c.m, c.n, c.b, g.PR, g.PC), func(t *testing.T) {
					for _, procs := range bulkProcs {
						t.Run(fmt.Sprintf("P%d", procs), func(t *testing.T) {
							runtime.GOMAXPROCS(procs)
							f(t, kind, src, c.b, g)
						})
					}
				})
			}
		}
	}
}

func TestBulkCasesStraddleCutoff(t *testing.T) {
	below, above := 0, 0
	for _, c := range bulkCases {
		if c.m*c.n > parallelCutoff {
			above++
		} else {
			below++
		}
	}
	if below == 0 || above == 0 {
		t.Fatalf("%d cases below and %d above the parallel cutoff", below, above)
	}
}

// TestBulkPackAndToDenseMatchOracle: the bulk, owner-parallel copy-in
// and the column-parallel copy-out move exactly the bits the
// element-wise loops moved.
func TestBulkPackAndToDenseMatchOracle(t *testing.T) {
	forEachBulkCase(t, func(t *testing.T, kind Kind, src *mat.Dense, b int, g Grid) {
		l := New(kind, src, b, g)
		oraclePack(t, l, src)
		d := l.ToDense()
		sameBits(t, "ToDense vs oracle", d, oracleToDense(l))
		sameBits(t, "ToDense vs source", d, src)
		// The layout owns its storage: writing to it leaves src alone.
		before := math.Float64bits(src.Data[0])
		l.Block(0, 0).Data[0] = 42
		if math.Float64bits(src.Data[0]) != before {
			t.Fatal("layout aliases its source")
		}
	})
}

// TestBulkEncodeDecodeMatchOracle: Encode, and WriteDense on the
// source matrix, are byte-identical to the old appending serializer,
// and ReadDense gives back the source and the shape bit for bit,
// reading exactly the encoding's bytes.
func TestBulkEncodeDecodeMatchOracle(t *testing.T) {
	forEachBulkCase(t, func(t *testing.T, kind Kind, src *mat.Dense, b int, g Grid) {
		l := New(kind, src, b, g)
		want := oracleEncode(l)
		enc := Encode(l)
		if !bytes.Equal(enc, want) {
			t.Fatal("Encode differs from the element-wise encoder")
		}
		var dense bytes.Buffer
		if err := WriteDense(&dense, nil, kind, src, b, g); err != nil || !bytes.Equal(dense.Bytes(), want) {
			t.Fatalf("WriteDense differs from the element-wise encoder (err %v)", err)
		}
		r := bytes.NewReader(append(enc, 0xAA, 0xBB))
		got, s, err := ReadDense(r, r.Size(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.Len() != 2 {
			t.Fatalf("ReadDense left %d bytes, want the 2 after the encoding", r.Len())
		}
		if s != ShapeOf(l) {
			t.Fatalf("decoded shape %+v, want %+v", s, ShapeOf(l))
		}
		sameBits(t, "ReadDense vs source", got, src)
	})
}

// eachBlock calls f on every block of run, a storage run whose first
// block row is i.
func eachBlock(run kernel.View, i, b int, f func(i int, blk kernel.View)) {
	for r := 0; r < run.Rows; r += b {
		f(i+r/b, run.Sub(r, min(r+b, run.Rows), 0, run.Cols))
	}
}

// walkVisit is one view a copy walk handed its visitor.
type walkVisit struct {
	i, j int
	run  kernel.View
}

// TestWalksVisitStorageRuns pins the grain of the copy walks, which the
// oracles cannot see: build (the walk under New) and
// WalkColumns visit one view per block column under CM and on a one-row
// BCL grid and one per block otherwise, and their views, cut back into
// blocks, are exactly the layout's blocks, each once.
func TestWalksVisitStorageRuns(t *testing.T) {
	forEachBulkCase(t, func(t *testing.T, kind Kind, src *mat.Dense, b int, g Grid) {
		var mu sync.Mutex
		walks := map[string][]walkVisit{}
		record := func(walk string) func(i, j int, run kernel.View) {
			return func(i, j int, run kernel.View) {
				mu.Lock()
				walks[walk] = append(walks[walk], walkVisit{i, j, run})
				mu.Unlock()
			}
		}
		l := build(NewShape(kind, src.Rows, src.Cols, b, g), record("build"))
		WalkColumns(l, record("WalkColumns"))
		mb, nb := l.Blocks()
		want := mb * nb
		if kind == CM || kind == BCL && g.PR == 1 {
			want = nb
		}
		for _, walk := range []string{"build", "WalkColumns"} {
			visits := walks[walk]
			if len(visits) != want {
				t.Fatalf("%s visited %d views, want %d", walk, len(visits), want)
			}
			seen := map[[2]int]bool{}
			for _, x := range visits {
				eachBlock(x.run, x.i, b, func(i int, blk kernel.View) {
					at := [2]int{i, x.j}
					if seen[at] {
						t.Fatalf("%s visited block %v twice", walk, at)
					}
					seen[at] = true
					w := l.Block(i, x.j)
					if blk.Rows != w.Rows || blk.Cols != w.Cols || blk.Stride != w.Stride || &blk.Data[0] != &w.Data[0] {
						t.Fatalf("%s: block %v of the run at (%d,%d) is not the layout's block", walk, at, x.i, x.j)
					}
				})
			}
			if len(seen) != mb*nb {
				t.Fatalf("%s covered %d of %d blocks", walk, len(seen), mb*nb)
			}
		}
	})
}

// TestOwnedSpan pins the closed form against the sum it replaced.
func TestOwnedSpan(t *testing.T) {
	for _, ext := range []int{0, 1, 7, 8, 9, 64, 100} {
		for _, b := range []int{1, 3, 8, 200} {
			for period := 1; period <= 4; period++ {
				for p := 0; p < period; p++ {
					want := 0
					for i := p; i < (ext+b-1)/b; i += period {
						want += min(b, ext-i*b)
					}
					if got := ownedSpan(ext, b, p, period); got != want {
						t.Errorf("ownedSpan(%d,%d,%d,%d) = %d, want %d", ext, b, p, period, got, want)
					}
				}
			}
		}
	}
}
