package layout

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// roundTrip encodes l, decodes it, and fails unless every property —
// kind, dims, grid, block shapes and every value, bit for bit — comes
// back identical.
func roundTrip(t *testing.T, l Layout) Layout {
	t.Helper()
	enc := Encode(l)
	if len(enc) != EncodedLen(l) {
		t.Fatalf("Encode produced %d bytes, EncodedLen says %d", len(enc), EncodedLen(l))
	}
	got, n, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if n != len(enc) {
		t.Fatalf("Decode consumed %d of %d bytes", n, len(enc))
	}
	if got.Kind() != l.Kind() {
		t.Fatalf("kind %v round-tripped to %v", l.Kind(), got.Kind())
	}
	m0, n0, b0 := l.Dims()
	m1, n1, b1 := got.Dims()
	if m0 != m1 || n0 != n1 || b0 != b1 {
		t.Fatalf("dims (%d,%d,%d) round-tripped to (%d,%d,%d)", m0, n0, b0, m1, n1, b1)
	}
	if got.Grid() != l.Grid() {
		t.Fatalf("grid %+v round-tripped to %+v", l.Grid(), got.Grid())
	}
	want := l.ToDense()
	have := got.ToDense()
	for j := 0; j < want.Cols; j++ {
		for i := 0; i < want.Rows; i++ {
			w, h := want.At(i, j), have.At(i, j)
			if math.Float64bits(w) != math.Float64bits(h) {
				t.Fatalf("value (%d,%d): %v round-tripped to %v", i, j, w, h)
			}
		}
	}
	return got
}

// TestSerializeRoundTrip covers all three kinds over ragged m/n/b
// property cases: edge blocks, block sizes larger than the matrix,
// tall, wide and empty-dimension shapes, and several worker grids.
func TestSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	shapes := []struct{ m, n, b, p int }{
		{1, 1, 1, 1},
		{7, 7, 3, 1},
		{16, 16, 4, 4},
		{17, 13, 5, 4},  // ragged in both dimensions
		{13, 29, 8, 6},  // wide, non-square grid
		{40, 9, 7, 3},   // tall
		{5, 5, 32, 2},   // block bigger than the matrix
		{33, 33, 32, 8}, // one ragged trailing block row/column
	}
	for _, kind := range []Kind{CM, BCL, TwoLevel} {
		for _, s := range shapes {
			src := mat.Random(s.m, s.n, rng)
			l := New(kind, src, s.b, NewGrid(s.p))
			got := roundTrip(t, l)
			// The restored layout must also agree with the source matrix,
			// not just with itself.
			d := got.ToDense()
			for j := 0; j < s.n; j++ {
				for i := 0; i < s.m; i++ {
					if d.At(i, j) != src.At(i, j) {
						t.Fatalf("%v %dx%d b=%d p=%d: (%d,%d) = %v, want %v",
							kind, s.m, s.n, s.b, s.p, i, j, d.At(i, j), src.At(i, j))
					}
				}
			}
		}
	}
}

// TestSerializeSpecialValues pins bit-exactness through the format for
// values a text encoding would mangle: negative zero, denormals, NaN
// payloads and infinities.
func TestSerializeSpecialValues(t *testing.T) {
	src := mat.New(2, 3)
	src.Set(0, 0, math.Copysign(0, -1))
	src.Set(1, 0, math.SmallestNonzeroFloat64)
	src.Set(0, 1, math.NaN())
	src.Set(1, 1, math.Inf(1))
	src.Set(0, 2, math.Inf(-1))
	src.Set(1, 2, 1.0/3.0)
	l := New(BCL, src, 2, NewGrid(2))
	got, _, err := Decode(Encode(l))
	if err != nil {
		t.Fatal(err)
	}
	want, have := l.ToDense(), got.ToDense()
	for i := range want.Data {
		if math.Float64bits(want.Data[i]) != math.Float64bits(have.Data[i]) {
			t.Fatalf("entry %d: %x round-tripped to %x", i,
				math.Float64bits(want.Data[i]), math.Float64bits(have.Data[i]))
		}
	}
}

// TestSerializeConcatenated: Decode consumes exactly one encoded
// layout and reports the cut, so two layouts stack back to back — the
// factorization wire format's L-then-U framing.
func TestSerializeConcatenated(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := New(TwoLevel, mat.Random(9, 5, rng), 4, NewGrid(2))
	b := New(BCL, mat.Random(3, 7, rng), 2, NewGrid(3))
	buf := append(Encode(a), Encode(b)...)
	gotA, n, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	gotB, m, err := Decode(buf[n:])
	if err != nil {
		t.Fatal(err)
	}
	if n+m != len(buf) {
		t.Fatalf("consumed %d+%d of %d bytes", n, m, len(buf))
	}
	if gotA.Kind() != TwoLevel || gotB.Kind() != BCL {
		t.Fatalf("kinds %v/%v, want 2l-BL/BCL", gotA.Kind(), gotB.Kind())
	}
	if d := gotB.ToDense(); d.Rows != 3 || d.Cols != 7 {
		t.Fatalf("second layout decoded as %dx%d", d.Rows, d.Cols)
	}
}

// garbageEncodings are corrupt headers and truncated payloads cut from
// good, a valid encoding of an 8x8 BCL layout with b = 4 on 2 workers.
func garbageEncodings(good []byte) map[string][]byte {
	cases := map[string][]byte{
		"empty":     nil,
		"short":     good[:10],
		"truncated": good[:len(good)-8],
	}
	badMagic := append([]byte{}, good...)
	badMagic[0] = 'X'
	cases["bad magic"] = badMagic
	badVer := append([]byte{}, good...)
	badVer[4] = 99
	cases["bad version"] = badVer
	badKind := append([]byte{}, good...)
	badKind[5] = 7
	cases["bad kind"] = badKind
	zeroBlock := append([]byte{}, good...)
	zeroBlock[14], zeroBlock[15], zeroBlock[16], zeroBlock[17] = 0, 0, 0, 0
	cases["zero block size"] = zeroBlock
	hugeGrid := append([]byte{}, good...)
	hugeGrid[18], hugeGrid[19] = 0xff, 0xff // PR = 65535, PC = 2
	cases["huge grid"] = hugeGrid
	// PR = PC = 2^32-1: their product wraps to a negative int.
	wrapGrid := append([]byte{}, good...)
	binary.LittleEndian.PutUint32(wrapGrid[18:], 0xFFFFFFFF)
	binary.LittleEndian.PutUint32(wrapGrid[22:], 0xFFFFFFFF)
	cases["grid wraps negative"] = wrapGrid
	// Dims whose byte count overflows: 8*m*n wraps negative for
	// m = n = 2^32-1 and to exactly zero for 2^31 x 2^30, so a length
	// check on the product passes and the allocation panics.
	dims := func(m, n uint32) []byte {
		d := append([]byte{}, good...)
		binary.LittleEndian.PutUint32(d[6:], m)
		binary.LittleEndian.PutUint32(d[10:], n)
		return d
	}
	cases["dims wrap negative"] = dims(0xFFFFFFFF, 0xFFFFFFFF)
	cases["dims wrap to zero"] = dims(1<<31, 1<<30)
	cases["one dim huge"] = dims(0xFFFFFFFF, 1)
	// No elements, so no payload, but 2^32-1 columns (rows) to walk,
	// with blocks of 4 or of nearly 2^32.
	cases["empty but wide"] = dims(0, 0xFFFFFFFF)
	cases["empty but tall"] = dims(0xFFFFFFFF, 0)
	wideBlock := dims(0, 0xFFFFFFFF)
	binary.LittleEndian.PutUint32(wideBlock[14:], 0xFFFFFF00)
	cases["empty but wide, one block"] = wideBlock
	return cases
}

// TestSerializeRejectsGarbage: corrupt headers and truncated payloads
// are errors, never panics or silently wrong layouts.
func TestSerializeRejectsGarbage(t *testing.T) {
	good := Encode(New(BCL, mat.Random(8, 8, rand.New(rand.NewSource(1))), 4, NewGrid(2)))
	for name, data := range garbageEncodings(good) {
		if _, _, err := Decode(data); err == nil {
			t.Errorf("%s: Decode accepted corrupt input", name)
		}
	}
}

// FuzzLayoutDecode: for any bytes, Decode returns an error or a layout
// that re-encodes to the bytes it consumed and decodes again to the
// same kind, dims, grid and values, bit for bit. It never panics.
func FuzzLayoutDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(13))
	good := Encode(New(BCL, mat.Random(8, 8, rng), 4, NewGrid(2)))
	for _, data := range garbageEncodings(good) {
		f.Add(data)
	}
	for _, kind := range []Kind{CM, BCL, TwoLevel} {
		f.Add(Encode(New(kind, mat.Random(5, 3, rng), 2, NewGrid(3))))
	}
	f.Add(append(Encode(New(TwoLevel, mat.Random(3, 4, rng), 8, NewGrid(1))), good...))
	f.Fuzz(func(t *testing.T, data []byte) {
		l, n, err := Decode(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("Decode consumed %d of %d bytes", n, len(data))
		}
		enc := Encode(l)
		if !bytes.Equal(enc, data[:n]) {
			t.Fatalf("re-encoding gives %d bytes that differ from the %d consumed", len(enc), n)
		}
		roundTrip(t, l)
	})
}
