package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/iotest"

	"repro/internal/core"
	"repro/internal/mat"
)

// randDense fills an r x c matrix with deterministic values, salting in
// a few special floats so bit-exactness is actually exercised.
func randDense(r, c int, seed int64) *mat.Dense {
	rng := rand.New(rand.NewSource(seed))
	d := mat.New(r, c)
	for i := range d.Data {
		d.Data[i] = rng.NormFloat64()
	}
	if len(d.Data) > 4 {
		d.Data[0] = math.Copysign(0, -1) // -0
		d.Data[1] = math.SmallestNonzeroFloat64
		d.Data[2] = math.Inf(1)
		d.Data[3] = math.NaN()
	}
	return d
}

func bitEqual(t *testing.T, name string, a, b *mat.Dense) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", name, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			t.Fatalf("%s: element %d differs: %x vs %x",
				name, i, math.Float64bits(a.Data[i]), math.Float64bits(b.Data[i]))
		}
	}
}

// TestWireLURoundTrip: LU factorizations of assorted (including ragged,
// sub-block and multi-block) sizes survive the wire bit-identically,
// permutation included.
func TestWireLURoundTrip(t *testing.T) {
	for _, n := range []int{1, 7, 128, 200} {
		lu := &core.Factorization{
			Perm: rand.New(rand.NewSource(int64(n))).Perm(n),
			L:    randDense(n, n, int64(n)),
			U:    randDense(n, n, int64(n)+1),
		}
		data, err := EncodeFactorization(lu, nil)
		if err != nil {
			t.Fatalf("n=%d: encode: %v", n, err)
		}
		got, ch, err := DecodeFactorization(data)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if ch != nil || got == nil {
			t.Fatalf("n=%d: decoded wrong kind", n)
		}
		if len(got.Perm) != n {
			t.Fatalf("n=%d: perm length %d", n, len(got.Perm))
		}
		for i, p := range lu.Perm {
			if got.Perm[i] != p {
				t.Fatalf("n=%d: perm[%d] = %d, want %d", n, i, got.Perm[i], p)
			}
		}
		bitEqual(t, "L", lu.L, got.L)
		bitEqual(t, "U", lu.U, got.U)
	}
}

// TestWireCholeskyRoundTrip: Cholesky factors travel without a
// permutation and come back bit-identical.
func TestWireCholeskyRoundTrip(t *testing.T) {
	for _, n := range []int{1, 33, 150} {
		ch := &core.CholeskyFactorization{L: randDense(n, n, int64(n))}
		data, err := EncodeFactorization(nil, ch)
		if err != nil {
			t.Fatalf("n=%d: encode: %v", n, err)
		}
		lu, got, err := DecodeFactorization(data)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if lu != nil || got == nil {
			t.Fatalf("n=%d: decoded wrong kind", n)
		}
		bitEqual(t, "chol L", ch.L, got.L)
	}
}

// oracleFactorBytes spells the encoding of one dense factor out
// element by element — the HSDL header for two-level tiles of
// wireBlock on a 1x1 grid, then tile row by tile row, each tile column
// by column — with no help from the layout package.
func oracleFactorBytes(d *mat.Dense) []byte {
	le := binary.LittleEndian
	out := []byte("HSDL\x01\x02")
	for _, v := range []int{d.Rows, d.Cols, wireBlock, 1, 1} {
		out = le.AppendUint32(out, uint32(v))
	}
	for i0 := 0; i0 < d.Rows; i0 += wireBlock {
		for j0 := 0; j0 < d.Cols; j0 += wireBlock {
			for j := j0; j < min(j0+wireBlock, d.Cols); j++ {
				for i := i0; i < min(i0+wireBlock, d.Rows); i++ {
					out = le.AppendUint64(out, math.Float64bits(d.At(i, j)))
				}
			}
		}
	}
	return out
}

// TestWireBytesMatchOracle: the bulk encoder changed no byte on the
// wire, for square, tall, wide and beyond-the-parallel-cutoff factors.
func TestWireBytesMatchOracle(t *testing.T) {
	le := binary.LittleEndian
	for _, s := range [][2]int{{1, 1}, {7, 7}, {128, 128}, {200, 130}, {130, 200}, {600, 520}} {
		m, n := s[0], s[1]
		r := min(m, n)
		lu := &core.Factorization{
			Perm: rand.New(rand.NewSource(int64(m))).Perm(m),
			L:    randDense(m, r, int64(m)),
			U:    randDense(r, n, int64(n)+1),
		}
		want := le.AppendUint32([]byte("HSDW\x01\x01"), uint32(m))
		for _, p := range lu.Perm {
			want = le.AppendUint32(want, uint32(p))
		}
		want = append(append(want, oracleFactorBytes(lu.L)...), oracleFactorBytes(lu.U)...)
		got, err := EncodeFactorization(lu, nil)
		if err != nil {
			t.Fatalf("%dx%d: %v", m, n, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%dx%d: LU wire bytes differ from the element-wise encoder", m, n)
		}

		ch := &core.CholeskyFactorization{L: randDense(m, m, int64(m)+2)}
		want = append([]byte("HSDW\x01\x02"), oracleFactorBytes(ch.L)...)
		if got, err = EncodeFactorization(nil, ch); err != nil {
			t.Fatalf("%dx%d: %v", m, m, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%dx%d: Cholesky wire bytes differ from the element-wise encoder", m, m)
		}
	}
}

// malformedWire are the malformed encodings TestWireRejectsInvalidInput
// expects DecodeFactorization to refuse, cut from valid encodings.
func malformedWire(t testing.TB) map[string][]byte {
	good, err := EncodeFactorization(&core.Factorization{
		Perm: []int{1, 0, 2},
		L:    randDense(3, 3, 1),
		U:    randDense(3, 3, 2),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":       nil,
		"short":       good[:3],
		"header only": good[:wireHdrLen],
		"perm only":   good[:wireHdrLen+4],
		"truncated L": good[:len(good)/2],
		"truncated U": good[:len(good)-1],
		"trailing":    append(append([]byte(nil), good...), 0),
		"bad magic":   append([]byte("NOPE"), good[4:]...),
		"bad version": append(append([]byte(nil), good[:4]...), append([]byte{99}, good[5:]...)...),
		"bad kind":    append(append([]byte(nil), good[:5]...), append([]byte{7}, good[6:]...)...),
		"perm len lie": func() []byte {
			b := append([]byte(nil), good...)
			b[wireHdrLen] = 200 // claims 200 perm entries
			return b
		}(),
		// Cut inside the first tile of L: past its header and two values.
		"cut mid-tile": good[:wireHdrLen+4+4*3+26+8*2+5],
	}
	// Permutation entries a solve would index out of range or twice:
	// good's permutation is {1, 0, 2}, starting after its length.
	perm := wireHdrLen + 4
	for name, entry := range map[string]uint32{
		"perm entry out of range": 1 << 20,
		"perm repeats a row":      1,
	} {
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(b[perm+4:], entry)
		cases[name] = b
	}
	// Factor headers whose m*n byte count overflows (see
	// layout.TestSerializeRejectsGarbage): the L factor starts right
	// after the three permutation entries.
	lDims := wireHdrLen + 4 + 4*3 + 6
	for name, mn := range map[string][2]uint32{
		"L dims wrap negative": {0xFFFFFFFF, 0xFFFFFFFF},
		"L dims wrap to zero":  {1 << 31, 1 << 30},
	} {
		b := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(b[lDims:], mn[0])
		binary.LittleEndian.PutUint32(b[lDims+4:], mn[1])
		cases[name] = b
	}
	// U's header claims 4 rows of 3 where the body holds 3: the frame
	// ends 24 bytes before the payload it declares.
	uDims := len(good) - 8*9 - 26 + 6
	claims := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(claims[uDims:], 4)
	cases["U claims more than the body"] = claims
	// Perm length / L rows mismatch (well-formed pieces, inconsistent).
	cases["perm/L mismatch"], err = EncodeFactorization(&core.Factorization{
		Perm: []int{0, 1},
		L:    randDense(3, 3, 1),
		U:    randDense(3, 3, 2),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cases
}

// TestWireRejectsInvalidInput: encode refuses ambiguous arguments,
// decode refuses malformed bytes without panicking.
func TestWireRejectsInvalidInput(t *testing.T) {
	if _, err := EncodeFactorization(nil, nil); err == nil {
		t.Fatal("encoded neither kind")
	}
	both := &core.Factorization{L: mat.New(1, 1), U: mat.New(1, 1)}
	if _, err := EncodeFactorization(both, &core.CholeskyFactorization{L: mat.New(1, 1)}); err == nil {
		t.Fatal("encoded both kinds")
	}
	for name, data := range malformedWire(t) {
		if _, _, err := DecodeFactorization(data); err == nil {
			t.Errorf("%s: decode accepted malformed input", name)
		}
	}
}

// readWire decodes data through r(data) as a stream that can carry
// limit bytes, splitting the result as DecodeFactorization does.
func readWire(data []byte, limit int64, r func(io.Reader) io.Reader) (*core.Factorization, *core.CholeskyFactorization, error) {
	f, err := ReadFactorization(r(bytes.NewReader(data)), limit)
	lu, _ := f.(*core.Factorization)
	ch, _ := f.(*core.CholeskyFactorization)
	return lu, ch, err
}

// FuzzDecodeFactorization: for any bytes, DecodeFactorization returns an
// error or a factorization whose permutation is one of 0…m−1 and that
// encodes and decodes again to the same kind, permutation and factor
// shapes, and the same values bit for bit. It never panics. Reading the
// bytes one per read gets the same outcome, the same error or the same
// factorization, as reading them whole — with the length declared (the
// limit is the input) and undeclared (a limit past it).
func FuzzDecodeFactorization(f *testing.F) {
	for _, data := range malformedWire(f) {
		f.Add(data)
	}
	lu, err := EncodeFactorization(&core.Factorization{Perm: []int{2, 0, 1}, L: randDense(3, 2, 3), U: randDense(2, 4, 4)}, nil)
	if err != nil {
		f.Fatal(err)
	}
	ch, err := EncodeFactorization(nil, &core.CholeskyFactorization{L: randDense(5, 5, 5)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(lu)
	f.Add(ch)
	plain := func(r io.Reader) io.Reader { return r }
	f.Fuzz(func(t *testing.T, data []byte) {
		lu, ch, err := DecodeFactorization(data)
		for _, limit := range []int64{int64(len(data)), 2*int64(len(data)) + 64} {
			lu0, ch0, err0 := readWire(data, limit, plain)
			lu1, ch1, err1 := readWire(data, limit, iotest.OneByteReader)
			if fmt.Sprint(err0) != fmt.Sprint(err1) {
				t.Fatalf("limit %d: whole reads give %v, one-byte reads %v", limit, err0, err1)
			}
			if limit == int64(len(data)) && fmt.Sprint(err0) != fmt.Sprint(err) {
				t.Fatalf("ReadFactorization gives %v, DecodeFactorization %v", err0, err)
			}
			if err0 != nil {
				continue
			}
			if ch0 != nil {
				bitEqual(t, "one-byte chol L", ch0.L, ch1.L)
				continue
			}
			if !slices.Equal(lu0.Perm, lu1.Perm) {
				t.Fatalf("limit %d: one-byte reads give perm %v, whole reads %v", limit, lu1.Perm, lu0.Perm)
			}
			bitEqual(t, "one-byte L", lu0.L, lu1.L)
			bitEqual(t, "one-byte U", lu0.U, lu1.U)
		}
		if err != nil {
			return
		}
		enc, err := EncodeFactorization(lu, ch)
		if err != nil {
			t.Fatalf("decoded factorization does not encode: %v", err)
		}
		lu2, ch2, err := DecodeFactorization(enc)
		if err != nil {
			t.Fatalf("re-encoded factorization does not decode: %v", err)
		}
		if (lu2 == nil) != (lu == nil) {
			t.Fatal("the kind changed on re-encoding")
		}
		if ch != nil {
			bitEqual(t, "chol L", ch.L, ch2.L)
			return
		}
		if len(lu.Perm) != lu.L.Rows {
			t.Fatalf("accepted a %d-entry perm for %d rows", len(lu.Perm), lu.L.Rows)
		}
		seen := make([]bool, lu.L.Rows)
		for _, p := range lu.Perm {
			if p < 0 || p >= len(seen) || seen[p] {
				t.Fatalf("accepted perm %v is not a permutation of 0…%d", lu.Perm, len(seen)-1)
			}
			seen[p] = true
		}
		if !slices.Equal(lu.Perm, lu2.Perm) {
			t.Fatalf("perm %v re-decoded as %v", lu.Perm, lu2.Perm)
		}
		bitEqual(t, "L", lu.L, lu2.L)
		bitEqual(t, "U", lu.U, lu2.U)
	})
}

// TestWireCodecAllocatesOnlyItsOutput pins the codec's copies on an
// n = 512 LU: streaming a frame out allocates its head and the encoder's
// buffer, streaming one in the dense L, U and permutation, and the byte
// string wrappers the wire bytes on top, each plus a small slack. A
// factor staged in tiles, or a frame held whole by the stream forms, is
// 2 MB over.
func TestWireCodecAllocatesOnlyItsOutput(t *testing.T) {
	const n, calls, slack = 512, 3, 64 << 10
	lu := &core.Factorization{
		Perm: rand.New(rand.NewSource(1)).Perm(n),
		L:    randDense(n, n, 1),
		U:    randDense(n, n, 2),
	}
	wire, err := EncodeFactorization(lu, nil)
	if err != nil {
		t.Fatal(err)
	}
	perCall := func(f func() error) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			if err := f(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / calls
	}
	stream := func() error {
		fr, err := NewFrame(lu, nil)
		if err != nil {
			return err
		}
		return fr.Encode(io.Discard)
	}
	if per := perCall(stream); per > slack {
		t.Errorf("streaming a frame out allocates %d bytes, over the %d-byte slack", per, slack)
	}
	encode := func() error { _, err := EncodeFactorization(lu, nil); return err }
	if per, limit := perCall(encode), uint64(len(wire)+slack); per > limit {
		t.Errorf("encoding allocates %d bytes, over %d: the %d-byte wire buffer and slack", per, limit, len(wire))
	}
	read := func() error {
		_, err := ReadFactorization(iotest.HalfReader(bytes.NewReader(wire)), int64(len(wire)))
		return err
	}
	decode := func() error { _, _, err := DecodeFactorization(wire); return err }
	for name, f := range map[string]func() error{"streaming a frame in": read, "decoding": decode} {
		if per, limit := perCall(f), uint64(2*n*n*8+n*8+slack); per > limit {
			t.Errorf("%s allocates %d bytes, over %d: L, U, the permutation and slack", name, per, limit)
		}
	}
}
