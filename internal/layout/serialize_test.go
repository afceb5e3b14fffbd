package layout

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/iotest"

	"repro/internal/mat"
)

// decode reads one encoded layout from data, as a stream that can carry
// limit bytes, through r(data), and reports how many bytes it consumed.
func decode(data []byte, limit int64, r func(io.Reader) io.Reader) (*mat.Dense, Shape, int, error) {
	br := bytes.NewReader(data)
	d, s, err := ReadDense(r(br), limit, nil)
	return d, s, len(data) - br.Len(), err
}

// whole is decode's plain reader, carrying exactly data.
func whole(data []byte) (*mat.Dense, Shape, int, error) {
	return decode(data, int64(len(data)), func(r io.Reader) io.Reader { return r })
}

// roundTrip encodes l, decodes it, and fails unless every property —
// kind, dims, grid and every value, bit for bit — comes back identical.
// It returns the decoded matrix.
func roundTrip(t *testing.T, l Layout) *mat.Dense {
	t.Helper()
	enc := Encode(l)
	m0, n0, _ := l.Dims()
	if len(enc) != EncodedLen(m0, n0) {
		t.Fatalf("Encode produced %d bytes, EncodedLen says %d", len(enc), EncodedLen(m0, n0))
	}
	got, s, n, err := whole(enc)
	if err != nil {
		t.Fatalf("ReadDense: %v", err)
	}
	if n != len(enc) {
		t.Fatalf("ReadDense consumed %d of %d bytes", n, len(enc))
	}
	if s != ShapeOf(l) {
		t.Fatalf("shape %+v round-tripped to %+v", ShapeOf(l), s)
	}
	want := l.ToDense()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%dx%d round-tripped to %dx%d", want.Rows, want.Cols, got.Rows, got.Cols)
	}
	for j := 0; j < want.Cols; j++ {
		for i := 0; i < want.Rows; i++ {
			w, h := want.At(i, j), got.At(i, j)
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
			// The decoded matrix must also agree with the source matrix,
			// not just with the layout.
			d := roundTrip(t, l)
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
	have, _, _, err := whole(Encode(l))
	if err != nil {
		t.Fatal(err)
	}
	want := l.ToDense()
	for i := range want.Data {
		if math.Float64bits(want.Data[i]) != math.Float64bits(have.Data[i]) {
			t.Fatalf("entry %d: %x round-tripped to %x", i,
				math.Float64bits(want.Data[i]), math.Float64bits(have.Data[i]))
		}
	}
}

// TestSerializeConcatenated: ReadDense consumes exactly one encoded
// layout from a stream, so two layouts stack back to back — the
// factorization wire format's L-then-U framing.
func TestSerializeConcatenated(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := New(TwoLevel, mat.Random(9, 5, rng), 4, NewGrid(2))
	b := New(BCL, mat.Random(3, 7, rng), 2, NewGrid(3))
	r := bytes.NewReader(append(Encode(a), Encode(b)...))
	_, sa, err := ReadDense(r, r.Size(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if used := int(r.Size()) - r.Len(); used != len(Encode(a)) {
		t.Fatalf("first layout consumed %d of its %d bytes", used, len(Encode(a)))
	}
	gotB, sb, err := ReadDense(r, int64(r.Len()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left after both layouts", r.Len())
	}
	if sa.Kind() != TwoLevel || sb.Kind() != BCL {
		t.Fatalf("kinds %v/%v, want 2l-BL/BCL", sa.Kind(), sb.Kind())
	}
	if gotB.Rows != 3 || gotB.Cols != 7 {
		t.Fatalf("second layout decoded as %dx%d", gotB.Rows, gotB.Cols)
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
	// A payload cut inside the first block, and a header claiming 16
	// rows over a body that holds 8: with the length undeclared (a limit
	// past the body) the stream itself runs out.
	cases["cut mid-tile"] = good[:serializeHdrLen+8*5+3]
	cases["claims more than the body"] = dims(16, 8)
	return cases
}

// TestSerializeRejectsGarbage: corrupt headers and truncated payloads
// are errors, never panics or silently wrong layouts, whether the
// stream's length is declared (the limit is the body) or not (the limit
// is far past it).
func TestSerializeRejectsGarbage(t *testing.T) {
	good := Encode(New(BCL, mat.Random(8, 8, rand.New(rand.NewSource(1))), 4, NewGrid(2)))
	plain := func(r io.Reader) io.Reader { return r }
	for name, data := range garbageEncodings(good) {
		for _, limit := range []int64{int64(len(data)), 1 << 20} {
			if _, _, _, err := decode(data, limit, plain); err == nil {
				t.Errorf("%s, limit %d: ReadDense accepted corrupt input", name, limit)
			}
		}
	}
}

// FuzzLayoutDecode: for any bytes, ReadDense returns an error or a
// matrix and shape that WriteDense, and Encode on the layout of that
// shape, turn back into exactly the bytes it consumed. It never panics,
// and a stream that hands it one byte per read gets the same outcome as
// one that hands it everything: the same error, or the same bits. Each
// input is read with its length declared (the limit is the input) and
// with a limit past it, as for a body of undeclared length.
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
	plain := func(r io.Reader) io.Reader { return r }
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, limit := range []int64{int64(len(data)), 2*int64(len(data)) + 64} {
			d, s, n, err := decode(data, limit, plain)
			d1, s1, n1, err1 := decode(data, limit, iotest.OneByteReader)
			if fmt.Sprint(err) != fmt.Sprint(err1) || n != n1 || s != s1 {
				t.Fatalf("limit %d: whole reads give (%v, %d bytes, %+v), one-byte reads (%v, %d bytes, %+v)", limit, err, n, s, err1, n1, s1)
			}
			if err != nil {
				continue
			}
			if !slices.EqualFunc(d.Data, d1.Data, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
				t.Fatalf("limit %d: one-byte reads decode other bits", limit)
			}
			_, _, b := s.Dims()
			var enc bytes.Buffer
			if err := WriteDense(&enc, nil, s.Kind(), d, b, s.Grid()); err != nil || !bytes.Equal(enc.Bytes(), data[:n]) {
				t.Fatalf("re-encoding gives %d bytes that differ from the %d consumed (err %v)", enc.Len(), n, err)
			}
			if enc := Encode(New(s.Kind(), d, b, s.Grid())); !bytes.Equal(enc, data[:n]) {
				t.Fatalf("Encode of the decoded layout differs from the %d bytes consumed", n)
			}
		}
	})
}
