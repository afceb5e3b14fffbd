package layout

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/mat"
)

// Serialization: a layout travels as a fixed header, then block row by
// block row, each column's rows of it in column order as raw float64
// bits (kind and grid say only how the sender kept the blocks), so it
// moves between a stream and a dense matrix through one small buffer,
// with no tile copy and nothing held whole on either end.
//
// Header (little-endian):
//
//	magic "HSDL" | version u8 | kind u8 | m u32 | n u32 | b u32 | PR u32 | PC u32
//
// followed by 8*m*n payload bytes.

const (
	serializeMagic   = "HSDL"
	serializeVersion = 1
	serializeHdrLen  = 4 + 1 + 1 + 5*4

	// maxSerializedGrid bounds PR*PC on decode, and the dims of an
	// empty layout, so a crafted header cannot buy millions of phantom
	// workers' submatrices or a walk over millions of phantom columns.
	maxSerializedGrid = 1 << 16

	streamBuf = 8 << 10 // the stream chunk a nil buffer stands for
)

// EncodedLen returns the exact byte length of an encoded m x n layout.
func EncodedLen(m, n int) int { return serializeHdrLen + 8*m*n }

// Encode serializes l — kind, dims, grid and every block's values —
// into a self-delimiting byte string. ReadDense inverts it exactly.
func Encode(l Layout) []byte {
	s := ShapeOf(l)
	out := bytes.NewBuffer(make([]byte, 0, EncodedLen(s.m, s.n)))
	writeRows(out, nil, s, func(i, c int) []float64 {
		v := l.Block(i, c/s.b)
		return v.Data[c%s.b*v.Stride:][:v.Rows]
	})
	return out.Bytes()
}

// WriteDense writes Encode(New(kind, d, b, g)) to w straight from d,
// len(buf) bytes at a time (streamBuf for a shorter buf).
func WriteDense(w io.Writer, buf []byte, kind Kind, d *mat.Dense, b int, g Grid) error {
	return writeRows(w, buf, NewShape(kind, d.Rows, d.Cols, b, g), denseRows(d, b))
}

// denseRows returns column c's rows of block row i of d, cut at b.
func denseRows(d *mat.Dense, b int) func(i, c int) []float64 {
	return func(i, c int) []float64 { return d.Data[c*d.Stride+i*b:][:min(b, d.Rows-i*b)] }
}

// writeRows writes the header of s, then its payload: piece(i, c), the
// rows of block row i in column c, for each block row and column.
func writeRows(w io.Writer, buf []byte, s Shape, piece func(i, c int) []float64) error {
	le := binary.LittleEndian
	buf = append(append(chunk(buf)[:0], serializeMagic...), serializeVersion, byte(s.kind))
	for _, v := range []int{s.m, s.n, s.b, s.grid.PR, s.grid.PC} {
		buf = le.AppendUint32(buf, uint32(v))
	}
	mb, _ := s.Blocks()
	for i := 0; i < mb; i++ {
		for c := 0; c < s.n; c++ {
			for col := piece(i, c); len(col) > 0; {
				if cap(buf)-len(buf) < 8 {
					if _, err := w.Write(buf); err != nil {
						return err
					}
					buf = buf[:0]
				}
				k := min(len(col), (cap(buf)-len(buf))/8)
				out := buf[len(buf) : len(buf)+8*k]
				for j, x := range col[:k] {
					le.PutUint64(out[8*j:], math.Float64bits(x))
				}
				buf, col = buf[:len(buf)+8*k], col[k:]
			}
		}
	}
	_, err := w.Write(buf)
	return err
}

// ReadDense reads one encoded layout, exactly its bytes, from r straight
// into a dense matrix, len(buf) bytes at a time (as WriteDense), and
// returns it with its header's shape. limit is the most bytes r can
// still carry: a payload that cannot fit is refused before allocation.
func ReadDense(r io.Reader, limit int64, buf []byte) (*mat.Dense, Shape, error) {
	var hdr [serializeHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, Shape{}, fmt.Errorf("layout: reading header: %w", err)
	}
	if string(hdr[:4]) != serializeMagic || hdr[4] != serializeVersion {
		return nil, Shape{}, fmt.Errorf("layout: bad magic or version %q", hdr[:5])
	}
	kind := Kind(hdr[5])
	switch kind {
	case CM, BCL, TwoLevel:
	default:
		return nil, Shape{}, fmt.Errorf("layout: unknown layout kind %d", hdr[5])
	}
	le := binary.LittleEndian
	um, un := uint64(le.Uint32(hdr[6:])), uint64(le.Uint32(hdr[10:]))
	b := int(le.Uint32(hdr[14:]))
	pr := int(le.Uint32(hdr[18:]))
	pc := int(le.Uint32(hdr[22:]))
	if b < 1 {
		return nil, Shape{}, fmt.Errorf("layout: non-positive block size %d", b)
	}
	// Divide rather than multiply: PR*PC of two u32 fields can wrap
	// negative and pass a bound.
	if pr < 1 || pc < 1 || pr > maxSerializedGrid/pc {
		return nil, Shape{}, fmt.Errorf("layout: implausible %dx%d worker grid", pr, pc)
	}
	// The dims are wire input: bound m*n by division against the bytes
	// the stream can still carry before anything multiplies or allocates.
	if have := uint64(max(limit-serializeHdrLen, 0)) / 8; um != 0 && un > have/um {
		return nil, Shape{}, fmt.Errorf("layout: truncated payload: %d bytes left, too few for %dx%d", limit, um, un)
	}
	// An empty layout has no payload to bound it, yet decoding and
	// encoding it, and any loop over its columns (rows), still take a
	// step for each.
	if (um == 0 || un == 0) && um+un > maxSerializedGrid {
		return nil, Shape{}, fmt.Errorf("layout: implausible empty %dx%d layout", um, un)
	}
	s := NewShape(kind, int(um), int(un), b, Grid{PR: pr, PC: pc})
	d := mat.New(s.m, s.n)
	buf, left := chunk(buf), []byte(nil)
	rest := 8 * s.m * s.n // payload bytes not yet read
	mb, _ := s.Blocks()
	piece := denseRows(d, b)
	for i := 0; i < mb; i++ {
		for c := 0; c < s.n; c++ {
			for col := piece(i, c); len(col) > 0; {
				if len(left) == 0 {
					left = buf[:min(rest, len(buf))]
					if _, err := io.ReadFull(r, left); err != nil {
						return nil, Shape{}, fmt.Errorf("layout: reading payload: %w", err)
					}
					rest -= len(left)
				}
				k := min(len(col), len(left)/8)
				for j := range col[:k] {
					col[j] = math.Float64frombits(le.Uint64(left[8*j:]))
				}
				col, left = col[k:], left[8*k:]
			}
		}
	}
	return d, s, nil
}

// chunk is buf cut to whole numbers, or a new streamBuf-byte buffer.
func chunk(buf []byte) []byte {
	if n := len(buf) &^ 7; n >= streamBuf {
		return buf[:n:n]
	}
	return make([]byte, streamBuf)
}
