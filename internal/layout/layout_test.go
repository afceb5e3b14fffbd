package layout

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

var allKinds = []Kind{CM, BCL, TwoLevel}

func TestNewGrid(t *testing.T) {
	cases := map[int][2]int{
		1:  {1, 1},
		2:  {1, 2},
		4:  {2, 2},
		6:  {2, 3},
		16: {4, 4},
		24: {4, 6},
		48: {6, 8},
		7:  {1, 7},
	}
	for p, want := range cases {
		g := NewGrid(p)
		if g.PR != want[0] || g.PC != want[1] {
			t.Errorf("NewGrid(%d) = %dx%d want %dx%d", p, g.PR, g.PC, want[0], want[1])
		}
		if g.Workers() != p {
			t.Errorf("NewGrid(%d).Workers() = %d", p, g.Workers())
		}
	}
}

// TestParseKind: every name a command-line flag may spell resolves to
// its layout, and each kind's own abbreviation parses back to it.
func TestParseKind(t *testing.T) {
	for name, want := range map[string]Kind{
		"": BCL, "bcl": BCL, "CM": CM, "2l": TwoLevel, "2l-bl": TwoLevel, "twolevel": TwoLevel,
	} {
		if got, err := ParseKind(name); err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", name, got, err, want)
		}
		if back, err := ParseKind(want.String()); err != nil || back != want {
			t.Errorf("ParseKind(%v.String()) = %v, %v", want, back, err)
		}
	}
	if _, err := ParseKind("rowmajor"); err == nil {
		t.Error("ParseKind accepted an unknown name")
	}
}

func TestOwnerCyclic(t *testing.T) {
	s := NewShape(BCL, 48, 72, 8, Grid{PR: 2, PC: 3})
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		for j := 0; j < 6; j++ {
			w := s.Owner(i, j)
			if w < 0 || w >= 6 {
				t.Fatalf("owner out of range: %d", w)
			}
			seen[w] = true
			if s.Owner(i+2, j) != w || s.Owner(i, j+3) != w {
				t.Fatal("ownership not cyclic")
			}
		}
	}
	if len(seen) != 6 {
		t.Fatalf("only %d owners used", len(seen))
	}
}

func TestRoundTripAllKindsAllShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := [][3]int{{8, 8, 4}, {9, 7, 4}, {16, 12, 4}, {5, 5, 8}, {30, 20, 7}, {12, 12, 3}}
	for _, kind := range allKinds {
		for _, s := range shapes {
			src := mat.Random(s[0], s[1], rng)
			l := New(kind, src, s[2], NewGrid(4))
			back := l.ToDense()
			if mat.MaxAbsDiff(src, back) != 0 {
				t.Errorf("%v round trip failed for shape %v", kind, s)
			}
		}
	}
}

func TestBlockViewsAliasStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := mat.Random(12, 12, rng)
	for _, kind := range allKinds {
		l := New(kind, src, 4, NewGrid(4))
		v := l.Block(1, 2)
		v.Set(0, 0, 123.5)
		if l.ToDense().At(4, 8) != 123.5 {
			t.Errorf("%v: block view does not alias storage", kind)
		}
	}
}

func TestEdgeBlockDims(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := mat.Random(10, 7, rng)
	for _, kind := range allKinds {
		l := New(kind, src, 4, NewGrid(2))
		mb, nb := l.Blocks()
		if mb != 3 || nb != 2 {
			t.Fatalf("%v: blocks = %dx%d want 3x2", kind, mb, nb)
		}
		v := l.Block(2, 1)
		if v.Rows != 2 || v.Cols != 3 {
			t.Errorf("%v: edge block %dx%d want 2x3", kind, v.Rows, v.Cols)
		}
	}
}

func TestSwapRowsWithinBlockColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	src := mat.Random(12, 12, rng)
	for _, kind := range allKinds {
		l := New(kind, src, 4, NewGrid(4))
		// Swap rows 1 and 9 (different block rows) in block column 1 only.
		l.SwapRows(1, 1, 9)
		got := l.ToDense()
		for j := 0; j < 12; j++ {
			wantTop, wantBot := src.At(1, j), src.At(9, j)
			if j >= 4 && j < 8 {
				wantTop, wantBot = wantBot, wantTop
			}
			if got.At(1, j) != wantTop || got.At(9, j) != wantBot {
				t.Errorf("%v: swap wrong at column %d", kind, j)
			}
		}
	}
}

func TestSwapSameRowNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := mat.Random(8, 8, rng)
	for _, kind := range allKinds {
		l := New(kind, src, 4, NewGrid(2))
		l.SwapRows(0, 3, 3)
		if mat.MaxAbsDiff(src, l.ToDense()) != 0 {
			t.Errorf("%v: same-row swap changed data", kind)
		}
	}
}

func TestTwoLevelTilesContiguous(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	l := New(TwoLevel, mat.Random(8, 8, rng), 4, NewGrid(2))
	v := l.Block(1, 1)
	if v.Stride != v.Rows {
		t.Fatalf("tile stride %d != rows %d: not contiguous", v.Stride, v.Rows)
	}
	if len(v.Data) < v.Rows*v.Cols {
		t.Fatal("tile slice too short")
	}
}

func TestKindString(t *testing.T) {
	if CM.String() != "CM" || BCL.String() != "BCL" || TwoLevel.String() != "2l-BL" {
		t.Fatal("kind names must match the paper")
	}
}

// Property: for any layout kind, shape and grid, writing through block
// views and reading back through ToDense preserves every element.
func TestBlockWriteReadProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 4 + int(rng.Int31n(20))
		n := 4 + int(rng.Int31n(20))
		b := 2 + int(rng.Int31n(5))
		p := 1 + int(rng.Int31n(6))
		kind := allKinds[rng.Intn(len(allKinds))]
		src := mat.Random(m, n, rng)
		l := New(kind, src, b, NewGrid(p))
		mb, nb := l.Blocks()
		// Overwrite every element via block views with i*1000+j.
		for bi := 0; bi < mb; bi++ {
			for bj := 0; bj < nb; bj++ {
				v := l.Block(bi, bj)
				for jj := 0; jj < v.Cols; jj++ {
					for ii := 0; ii < v.Rows; ii++ {
						v.Set(ii, jj, float64((bi*b+ii)*1000+bj*b+jj))
					}
				}
			}
		}
		d := l.ToDense()
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				if d.At(i, j) != float64(i*1000+j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: SwapRows on a block column is an involution.
func TestSwapInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 6 + int(rng.Int31n(20))
		n := 6 + int(rng.Int31n(20))
		b := 2 + int(rng.Int31n(4))
		kind := allKinds[rng.Intn(len(allKinds))]
		src := mat.Random(m, n, rng)
		l := New(kind, src, b, NewGrid(1+int(rng.Int31n(5))))
		_, nb := l.Blocks()
		jb := int(rng.Int31n(int32(nb)))
		r1 := int(rng.Int31n(int32(m)))
		r2 := int(rng.Int31n(int32(m)))
		l.SwapRows(jb, r1, r2)
		l.SwapRows(jb, r1, r2)
		return mat.MaxAbsDiff(src, l.ToDense()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBCLRowGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	src := mat.Random(24, 16, rng)
	g := NewGrid(4) // 2x2: PR=2
	l := New(BCL, src, 4, g)
	// Worker of block (0,0) owns block rows 0,2,4 (PR=2).
	if w := l.RowGroupWidth(0, 0, 3); w != 3 {
		t.Fatalf("row group width = %d want 3", w)
	}
	v := l.GroupedRows(0, 0, 3)
	if v.Rows != 12 || v.Cols != 4 {
		t.Fatalf("grouped rows view %dx%d want 12x4", v.Rows, v.Cols)
	}
	// Rows of the view must be block rows 0, 2, 4 in order.
	for w := 0; w < 3; w++ {
		for ii := 0; ii < 4; ii++ {
			for jj := 0; jj < 4; jj++ {
				want := src.At((2*w)*4+ii, jj)
				if got := v.At(w*4+ii, jj); got != want {
					t.Fatalf("grouped rows wrong at group %d (%d,%d): got %g want %g", w, ii, jj, got, want)
				}
			}
		}
	}
}

func TestCMRowGroupingFullColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	src := mat.Random(20, 8, rng)
	l := New(CM, src, 4, NewGrid(2))
	// CM can fuse the whole column: 5 block rows.
	if w := l.RowGroupWidth(0, 1, 100); w != 5 {
		t.Fatalf("CM row group width = %d want 5", w)
	}
	v := l.GroupedRows(1, 1, 4)
	if v.Rows != 16 || v.Cols != 4 {
		t.Fatalf("CM grouped rows %dx%d want 16x4", v.Rows, v.Cols)
	}
	if v.At(0, 0) != src.At(4, 4) {
		t.Fatal("CM grouped rows offset wrong")
	}
}

func TestTwoLevelCannotGroupRows(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	l := New(TwoLevel, mat.Random(16, 8, rng), 4, NewGrid(2))
	if w := l.RowGroupWidth(0, 0, 3); w != 1 {
		t.Fatalf("2l-BL row group width = %d want 1", w)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 2l-BL row group width > 1")
		}
	}()
	l.GroupedRows(0, 0, 2)
}

func TestBCLGroupedRowsRagged(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	src := mat.Random(18, 8, rng) // last block row has 2 rows (b=4)
	l := New(BCL, src, 4, NewGrid(1))
	// Single worker owns everything; rows 3 and 4 are consecutive owned.
	v := l.GroupedRows(3, 0, 2)
	if v.Rows != 6 { // 4 + 2 ragged
		t.Fatalf("ragged grouped rows = %d want 6", v.Rows)
	}
	if v.At(5, 0) != src.At(17, 0) {
		t.Fatal("ragged grouped rows content wrong")
	}
}

// TestBCLRect: a rectangle of owned blocks on a 2x2 grid, ragged in
// both directions, is one view whose element (r, c) is the global
// element of the owned block it falls in.
func TestBCLRect(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	src := mat.Random(22, 19, rng) // 6x5 blocks of b=4, last ones 2 rows / 3 cols
	l := New(BCL, src, 4, NewGrid(4)).(*BlockCyclic)
	// Worker 1 (PR=2, PC=2) owns block rows 1, 3, 5 and columns 0, 2, 4.
	v := l.Rect(3, 2, 2, 2)
	if v.Rows != 4+2 || v.Cols != 4+3 {
		t.Fatalf("rect %dx%d want 6x7", v.Rows, v.Cols)
	}
	for r := 0; r < v.Rows; r++ {
		for c := 0; c < v.Cols; c++ {
			gi, gj := (3+2*(r/4))*4+r%4, (2+2*(c/4))*4+c%4
			if got, want := v.At(r, c), src.At(gi, gj); got != want {
				t.Fatalf("rect (%d,%d) = %g, want element (%d,%d) = %g", r, c, got, gi, gj, want)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for a rectangle past the last owned block column")
		}
	}()
	l.Rect(3, 2, 2, 3)
}
