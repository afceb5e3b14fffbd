package piv

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/kernel"
	"repro/internal/mat"
)

func ids(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

func TestSelectPicksLargestSingleColumn(t *testing.T) {
	vals := mat.New(5, 1)
	for i, v := range []float64{1, -7, 3, 2, 5} {
		vals.Set(i, 0, v)
	}
	c, err := Select(vals, ids(100, 105), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.IDs) != 1 || c.IDs[0] != 101 {
		t.Fatalf("selected %v want [101] (largest magnitude)", c.IDs)
	}
	if c.Vals.At(0, 0) != -7 {
		t.Fatal("candidate must carry original values")
	}
}

func TestSelectLeavesInputUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := mat.Random(10, 4, rng)
	orig := vals.Clone()
	if _, err := Select(vals, ids(0, 10), 4); err != nil {
		t.Fatal(err)
	}
	if mat.MaxAbsDiff(vals, orig) != 0 {
		t.Fatal("Select must not modify its input")
	}
}

func TestSelectFewerRowsThanB(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vals := mat.Random(3, 4, rng)
	c, err := Select(vals, ids(7, 10), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.IDs) != 3 {
		t.Fatalf("want all 3 rows as candidates, got %d", len(c.IDs))
	}
}

func TestCombineKeepsBestOfBoth(t *testing.T) {
	// One candidate has a huge row; it must survive the combine.
	a := mat.New(2, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, 1)
	b := mat.New(2, 2)
	b.Set(0, 0, 1000)
	b.Set(0, 1, 1)
	b.Set(1, 1, 2)
	ca := Candidate{Vals: a, IDs: []int{10, 11}}
	cb := Candidate{Vals: b, IDs: []int{20, 21}}
	got, err := Combine(ca, cb, 2)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range got.IDs {
		if id == 20 {
			found = true
		}
	}
	if !found {
		t.Fatalf("dominant row 20 lost in combine: %v", got.IDs)
	}
}

func TestCombineWithEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := mat.Random(2, 2, rng)
	c := Candidate{Vals: vals, IDs: []int{1, 2}}
	got, err := Combine(Candidate{}, c, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.IDs) != 2 || got.IDs[0] != 1 {
		t.Fatal("combine with empty must return the non-empty side")
	}
}

func TestTournamentMatchesDirectGEPPPivotQuality(t *testing.T) {
	// Tournament pivoting need not pick the same rows as GEPP, but the
	// pivot block it selects must be far from singular on random input.
	rng := rand.New(rand.NewSource(4))
	b := 4
	panel := mat.Random(32, b, rng)
	var cands []Candidate
	for c := 0; c < 4; c++ {
		chunk := panel.Slice(c*8, (c+1)*8, 0, b)
		cand, err := Select(chunk, ids(c*8, (c+1)*8), b)
		if err != nil {
			t.Fatal(err)
		}
		cands = append(cands, cand)
	}
	winners, err := tournament(cands, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(winners) != b {
		t.Fatalf("want %d winners, got %d", b, len(winners))
	}
	seen := map[int]bool{}
	for _, w := range winners {
		if w < 0 || w >= 32 || seen[w] {
			t.Fatalf("invalid winner set %v", winners)
		}
		seen[w] = true
	}
}

func TestTournamentSingleCandidate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := mat.Random(6, 3, rng)
	c, err := Select(vals, ids(0, 6), 3)
	if err != nil {
		t.Fatal(err)
	}
	w, err := tournament([]Candidate{c}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 3 {
		t.Fatal("single-candidate tournament must return the candidate ids")
	}
}

func TestTournamentEmpty(t *testing.T) {
	if _, err := tournament(nil, 3); err == nil {
		t.Fatal("expected error for empty tournament")
	}
}

func TestSwapsMovesPivotsIntoPlace(t *testing.T) {
	// Pivot rows 7, 3, 9 should land at rows 2, 3, 4 (base=2).
	swaps := Swaps([]int{7, 3, 9}, 2)
	order := ids(0, 10)
	ApplySwapsToPerm(order, swaps)
	if order[2] != 7 || order[3] != 3 || order[4] != 9 {
		t.Fatalf("after swaps rows are %v", order[:5])
	}
}

func TestSwapsIdentityWhenAlreadyPlaced(t *testing.T) {
	if got := Swaps([]int{5, 6, 7}, 5); len(got) != 0 {
		t.Fatalf("expected no swaps, got %v", got)
	}
}

func TestSwapsChained(t *testing.T) {
	// Pivot for slot 0 displaces a row that is itself a later pivot.
	swaps := Swaps([]int{1, 0}, 0)
	order := ids(0, 3)
	ApplySwapsToPerm(order, swaps)
	if order[0] != 1 || order[1] != 0 {
		t.Fatalf("chained displacement broken: %v", order)
	}
}

// Property: tournament pivoting over random chunkings always yields a
// set of b distinct rows whose pivot block is invertible enough that
// the no-pivot LU of the reordered panel succeeds with bounded growth.
func TestTournamentPivotBlockInvertibleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := 2 + int(rng.Int31n(4))
		rows := b * (2 + int(rng.Int31n(6)))
		panel := mat.Random(rows, b, rng)
		// Contiguous chunks of at least b rows each.
		nchunks := min(1+int(rng.Int31n(4)), rows/b)
		var cands []Candidate
		for ch := 0; ch < nchunks; ch++ {
			r0, r1 := ch*rows/nchunks, (ch+1)*rows/nchunks
			c, err := Select(panel.Slice(r0, r1, 0, b), ids(r0, r1), b)
			if err != nil {
				return false
			}
			cands = append(cands, c)
		}
		winners, err := tournament(cands, b)
		if err != nil || len(winners) != b {
			return false
		}
		// The pivot block must be well conditioned enough to factor.
		blockVals := mat.New(b, b)
		for t2, r := range winners {
			for j := 0; j < b; j++ {
				blockVals.Set(t2, j, panel.At(r, j))
			}
		}
		// Crude invertibility check via GEPP on the pivot block.
		c2, err := Select(blockVals, ids(0, b), b)
		if err != nil {
			return false
		}
		return len(c2.IDs) == b && !math.IsNaN(blockVals.NormMax())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// deficientChunk builds an r x c chunk with `rank` distinct random rows above
// a zero-row region — exactly singular as a chunk: zero rows stay
// exactly zero under elimination, so GEPP deterministically hits a zero
// pivot at column `rank` and the prefix fallback must engage.
func deficientChunk(r, c, rank int, rng *rand.Rand) *mat.Dense {
	out := mat.New(r, c)
	out.Slice(0, rank, 0, c).CopyFrom(mat.Random(rank, c, rng))
	return out
}

func TestSelectSingularChunkPrefixFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	vals := deficientChunk(8, 4, 2, rng)
	c, err := Select(vals, ids(10, 18), 4)
	if err != nil {
		t.Fatalf("a singular chunk must degrade, not error: %v", err)
	}
	if len(c.IDs) != 4 {
		t.Fatalf("fallback fielded %d contestants, want min(b, rows) = 4", len(c.IDs))
	}
	seen := map[int]bool{}
	for t2, id := range c.IDs {
		if id < 10 || id >= 18 || seen[id] {
			t.Fatalf("invalid candidate ids %v", c.IDs)
		}
		seen[id] = true
		// Candidates must carry original (unfactored) row values.
		for j := 0; j < 4; j++ {
			if c.Vals.At(t2, j) != vals.At(id-10, j) {
				t.Fatalf("candidate %d does not carry original values of row %d", t2, id)
			}
		}
	}
}

func TestSelectAllZeroChunk(t *testing.T) {
	vals := mat.New(6, 3)
	c, err := Select(vals, ids(0, 6), 3)
	if err != nil {
		t.Fatalf("zero chunk must still field contestants: %v", err)
	}
	if len(c.IDs) != 3 {
		t.Fatalf("want 3 padded candidates, got %d", len(c.IDs))
	}
	// With no established prefix the padding preserves input order.
	for i, id := range c.IDs {
		if id != i {
			t.Fatalf("padding order broken: %v", c.IDs)
		}
	}
}

func TestTournamentSurvivesSingularChunk(t *testing.T) {
	// One exactly singular chunk among healthy ones: the tournament must
	// still produce b distinct winners whose pivot block factors, because
	// the combine rounds outvote the singular chunk's padding.
	rng := rand.New(rand.NewSource(7))
	b := 4
	healthy := mat.Random(24, b, rng)
	var cands []Candidate
	for c := 0; c < 3; c++ {
		chunk := healthy.Slice(c*8, (c+1)*8, 0, b)
		cand, err := Select(chunk, ids(c*8, (c+1)*8), b)
		if err != nil {
			t.Fatal(err)
		}
		cands = append(cands, cand)
	}
	singVals := deficientChunk(8, b, 2, rng)
	sing, err := Select(singVals, ids(24, 32), b)
	if err != nil {
		t.Fatal(err)
	}
	cands = append(cands, sing)
	winners, err := tournament(cands, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(winners) != b {
		t.Fatalf("want %d winners, got %d", b, len(winners))
	}
	block := mat.New(b, b)
	all := mat.New(32, b)
	all.Slice(0, 24, 0, b).CopyFrom(healthy)
	all.Slice(24, 32, 0, b).CopyFrom(singVals)
	seen := map[int]bool{}
	for t2, w := range winners {
		if w < 0 || w >= 32 || seen[w] {
			t.Fatalf("invalid winner set %v", winners)
		}
		seen[w] = true
		for j := 0; j < b; j++ {
			block.Set(t2, j, all.At(w, j))
		}
	}
	if c2, err := Select(block, ids(0, b), b); err != nil || len(c2.IDs) != b {
		t.Fatalf("winning pivot block not full rank: %v %v", c2.IDs, err)
	}
}

// oracleSelect and oracleCombine are the clone-based selection the
// in-place routine replaced, kept verbatim: factor a fresh copy, read
// the winners back from the input element by element.
func oracleSelect(vals *mat.Dense, ids []int, b int) (Candidate, error) {
	r, c := vals.Rows, vals.Cols
	if len(ids) != r {
		panic(fmt.Sprintf("piv: ids length %d != rows %d", len(ids), r))
	}
	steps := min(r, c)
	work := vals.Clone()
	pivots := make([]int, steps)
	err := kernel.RecursiveLU(kernel.View{Rows: r, Cols: c, Stride: work.Stride, Data: work.Data}, pivots)
	established := steps
	if err != nil {
		var se *kernel.SingularError
		if !errors.As(err, &se) {
			return Candidate{}, fmt.Errorf("piv: candidate selection failed: %w", err)
		}
		established = se.K
	}
	p := make([]int, r)
	for i := range p {
		p[i] = i
	}
	for k, q := range pivots[:established] {
		p[k], p[q] = p[q], p[k]
	}
	take := min(b, r)
	out := Candidate{Vals: mat.New(take, c), IDs: make([]int, take)}
	for t := 0; t < take; t++ {
		src := p[t]
		out.IDs[t] = ids[src]
		for j := 0; j < c; j++ {
			out.Vals.Set(t, j, vals.At(src, j))
		}
	}
	return out, nil
}

func oracleCombine(a, b Candidate, bsize int) (Candidate, error) {
	ra, rb := a.Vals.Rows, b.Vals.Rows
	stack := mat.New(ra+rb, a.Vals.Cols)
	stack.Slice(0, ra, 0, stack.Cols).CopyFrom(a.Vals)
	stack.Slice(ra, ra+rb, 0, stack.Cols).CopyFrom(b.Vals)
	ids := make([]int, 0, ra+rb)
	ids = append(ids, a.IDs...)
	ids = append(ids, b.IDs...)
	return oracleSelect(stack, ids, bsize)
}

// sameCandidate requires equal ids and bit-identical values.
func sameCandidate(t *testing.T, what string, got, want Candidate) {
	t.Helper()
	if len(got.IDs) != len(want.IDs) || got.Vals.Rows != want.Vals.Rows || got.Vals.Cols != want.Vals.Cols {
		t.Fatalf("%s: %d ids, %dx%d values; oracle %d ids, %dx%d", what, len(got.IDs), got.Vals.Rows, got.Vals.Cols, len(want.IDs), want.Vals.Rows, want.Vals.Cols)
	}
	for i := range want.IDs {
		if got.IDs[i] != want.IDs[i] {
			t.Fatalf("%s: ids %v, oracle %v", what, got.IDs, want.IDs)
		}
	}
	for j := 0; j < want.Vals.Cols; j++ {
		for i := 0; i < want.Vals.Rows; i++ {
			if g, w := got.Vals.At(i, j), want.Vals.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: value (%d,%d) = %x, oracle %x", what, i, j, math.Float64bits(g), math.Float64bits(w))
			}
		}
	}
}

// duplicatedChunk builds an r x c chunk cycling through `distinct`
// random rows. With distinct < c <= 64 (one unblocked GEPP leaf) each
// copy of a pivot row is eliminated to exactly zero, so GEPP meets an
// exactly zero pivot column at `distinct`.
func duplicatedChunk(r, c, distinct int, rng *rand.Rand) *mat.Dense {
	base := mat.Random(distinct, c, rng)
	out := mat.New(r, c)
	for i := 0; i < r; i++ {
		out.Slice(i, i+1, 0, c).CopyFrom(base.Slice(i%distinct, i%distinct+1, 0, c))
	}
	return out
}

// TestSelectionMatchesCloneOracle: SelectInPlace (one Scratch reused
// across every chunk, so its buffers are stale and resized), Select and
// Combine field exactly the oracle's candidates — same ids, same value
// bits — on healthy, ragged, short and exactly singular chunks.
func TestSelectionMatchesCloneOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	chunks := []struct {
		name     string
		vals     *mat.Dense
		b        int
		singular bool
	}{
		{"random 64x64", mat.Random(64, 64, rng), 64, false},
		{"random 2048x64", mat.Random(2048, 64, rng), 64, false},
		{"ragged 333x40", mat.Random(333, 40, rng), 40, false},
		{"short 10x16", mat.Random(10, 16, rng), 16, false},
		{"zero row region 96x32", deficientChunk(96, 32, 7, rng), 32, true},
		{"duplicated rows 120x16", duplicatedChunk(120, 16, 5, rng), 16, true},
	}
	var sc Scratch
	for _, ch := range chunks {
		r, c := ch.vals.Rows, ch.vals.Cols
		if ch.singular {
			var se *kernel.SingularError
			err := kernel.RecursiveLU(view(ch.vals.Clone()), make([]int, min(r, c)))
			if !errors.As(err, &se) {
				t.Fatalf("%s: GEPP returned %v, want an exact singularity", ch.name, err)
			}
		}
		rowIDs := ids(1000, 1000+r)
		want, err := oracleSelect(ch.vals, rowIDs, ch.b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Select(ch.vals, rowIDs, ch.b)
		if err != nil {
			t.Fatal(err)
		}
		sameCandidate(t, ch.name+" Select", got, want)
		got, err = SelectInPlace(view(ch.vals.Clone()), rowIDs, ch.b, denseRows(ch.vals), &sc)
		if err != nil {
			t.Fatal(err)
		}
		sameCandidate(t, ch.name+" SelectInPlace", got, want)

		// One combine game between the two halves' winners.
		h := r / 2
		lo, err := oracleSelect(ch.vals.Slice(0, h, 0, c), rowIDs[:h], ch.b)
		if err != nil {
			t.Fatal(err)
		}
		hi, err := oracleSelect(ch.vals.Slice(h, r, 0, c), rowIDs[h:], ch.b)
		if err != nil {
			t.Fatal(err)
		}
		want, err = oracleCombine(lo, hi, ch.b)
		if err != nil {
			t.Fatal(err)
		}
		got, err = Combine(lo, hi, ch.b)
		if err != nil {
			t.Fatal(err)
		}
		sameCandidate(t, ch.name+" Combine", got, want)
	}
}

// TestSelectInPlaceAllocatesOnlyTheCandidate: a leaf-shaped selection on
// an 8192 x 64 chunk, with warm scratch, allocates its b x b candidate
// and nothing chunk-sized — well under an eighth of the chunk's bytes,
// which a reintroduced clone of the chunk alone would exceed eightfold.
func TestSelectInPlaceAllocatesOnlyTheCandidate(t *testing.T) {
	const r, c = 8192, 64
	chunk := mat.Random(r, c, rand.New(rand.NewSource(9)))
	work := mat.New(r, c)
	rowIDs := ids(0, r)
	var sc Scratch
	selectOnce := func() {
		work.CopyFrom(chunk)
		if _, err := SelectInPlace(view(work), rowIDs, c, denseRows(chunk), &sc); err != nil {
			t.Fatal(err)
		}
	}
	selectOnce() // grow the scratch and the kernels' workspaces
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	selectOnce()
	runtime.ReadMemStats(&after)
	limit := uint64(r*c*8) / 8
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Fatalf("one selection allocated %d bytes, limit %d (1/8 of the chunk)", got, limit)
	}
}

// tournament reduces a slice of candidates with a binary tree (the
// communication-minimizing shape the paper uses) and returns the global
// row indices of the winning pivot rows, best first.
func tournament(cands []Candidate, bsize int) ([]int, error) {
	if len(cands) == 0 {
		return nil, fmt.Errorf("piv: empty tournament")
	}
	round := cands
	for len(round) > 1 {
		next := make([]Candidate, 0, (len(round)+1)/2)
		for i := 0; i < len(round); i += 2 {
			if i+1 == len(round) {
				next = append(next, round[i])
				continue
			}
			c, err := Combine(round[i], round[i+1], bsize)
			if err != nil {
				return nil, err
			}
			next = append(next, c)
		}
		round = next
	}
	return round[0].IDs, nil
}
