package layout

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/kernel"
	"repro/internal/mat"
)

// Serialization: a layout travels as a fixed header followed by its
// blocks block row by block row, each column by column as raw float64
// bits. The payload depends on m, n and b alone (kind and grid say how
// the sender kept the blocks), so Encode writes it from a layout's
// storage while AppendDense and DecodeDense go straight between the
// bytes and a dense matrix — the cluster wire's path, with no tile copy.
// Floats round-trip bit-identically via math.Float64bits, which lets a
// replicated solve reproduce the owner's solve exactly.
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
	// empty layout: a crafted header must not make a caller that builds
	// its layout allocate submatrices for millions of phantom workers,
	// or make a walk step through millions of phantom columns.
	maxSerializedGrid = 1 << 16
)

// EncodedLen returns the exact byte length of an encoded m x n layout.
func EncodedLen(m, n int) int { return serializeHdrLen + 8*m*n }

// blockOffset is the byte offset of block (i,j) in an encoded layout of
// shape s: past the full block rows above it and the blocks to its left.
func blockOffset(s Shape, i, j int) int {
	r, _ := s.BlockDims(i, j)
	return serializeHdrLen + 8*(i*s.b*s.n+r*j*s.b)
}

// putHeader writes the header of shape s at the start of out.
func putHeader(out []byte, s Shape) {
	copy(out, serializeMagic)
	out[4] = serializeVersion
	out[5] = byte(s.kind)
	le := binary.LittleEndian
	le.PutUint32(out[6:], uint32(s.m))
	le.PutUint32(out[10:], uint32(s.n))
	le.PutUint32(out[14:], uint32(s.b))
	le.PutUint32(out[18:], uint32(s.grid.PR))
	le.PutUint32(out[22:], uint32(s.grid.PC))
}

// Encode serializes l — kind, dims, grid and every block's values —
// into a self-delimiting byte string. DecodeDense inverts it exactly.
func Encode(l Layout) []byte {
	s := ShapeOf(l)
	out := make([]byte, EncodedLen(s.m, s.n))
	putHeader(out, s)
	WalkColumns(l, func(i, j int, run kernel.View) { putRun(out, s, i, j, run) })
	return out
}

// AppendDense appends to dst the bytes of Encode(New(kind, d, b, g)),
// read straight from d, growing dst at most once.
func AppendDense(dst []byte, kind Kind, d *mat.Dense, b int, g Grid) []byte {
	s := NewShape(kind, d.Rows, d.Cols, b, g)
	size := EncodedLen(s.m, s.n)
	dst = slices.Grow(dst, size)
	out := dst[len(dst) : len(dst)+size]
	putHeader(out, s)
	eachBlockColumn(s, d, func(j int, col kernel.View) { putRun(out, s, 0, j, col) })
	return dst[:len(dst)+size]
}

// eachBlockColumn calls f on every block column of d, the m x n matrix
// of shape s, forking above the parallel cutoff.
func eachBlockColumn(s Shape, d *mat.Dense, f func(j int, col kernel.View)) {
	mb, nb := s.Blocks()
	if mb == 0 {
		return // no element to move, and d has no column to view
	}
	fork(nb, s.m*s.n, func(j int) {
		f(j, denseView(d, 0, j*s.b, s.m, min(s.b, s.n-j*s.b)))
	})
}

// eachBlock calls f on every block of run, a storage run whose first
// block row is i: the wire keeps block order whatever the walk's grain.
func eachBlock(run kernel.View, i, b int, f func(i int, blk kernel.View)) {
	for r := 0; r < run.Rows; r += b {
		f(i+r/b, run.Sub(r, min(r+b, run.Rows), 0, run.Cols))
	}
}

// putRun writes run, whose first block is (i,j), at its offsets in out.
func putRun(out []byte, s Shape, i, j int, run kernel.View) {
	le := binary.LittleEndian
	eachBlock(run, i, s.b, func(i int, v kernel.View) {
		p := out[blockOffset(s, i, j):]
		for jj := 0; jj < v.Cols; jj++ {
			for _, x := range v.Data[jj*v.Stride : jj*v.Stride+v.Rows] {
				le.PutUint64(p, math.Float64bits(x))
				p = p[8:]
			}
		}
	})
}

// DecodeDense decodes one encoded layout straight into a dense matrix.
// It returns the shape the header names, from which AppendDense gives
// back the same bytes, and how many bytes it consumed, so encoded
// layouts can be concatenated (the factorization wire format stacks
// two).
func DecodeDense(data []byte) (*mat.Dense, Shape, int, error) {
	if len(data) < serializeHdrLen {
		return nil, Shape{}, 0, fmt.Errorf("layout: encoded data too short (%d bytes)", len(data))
	}
	if string(data[:4]) != serializeMagic {
		return nil, Shape{}, 0, fmt.Errorf("layout: bad magic %q", data[:4])
	}
	if data[4] != serializeVersion {
		return nil, Shape{}, 0, fmt.Errorf("layout: unsupported format version %d", data[4])
	}
	kind := Kind(data[5])
	switch kind {
	case CM, BCL, TwoLevel:
	default:
		return nil, Shape{}, 0, fmt.Errorf("layout: unknown layout kind %d", data[5])
	}
	le := binary.LittleEndian
	um, un := uint64(le.Uint32(data[6:])), uint64(le.Uint32(data[10:]))
	b := int(le.Uint32(data[14:]))
	pr := int(le.Uint32(data[18:]))
	pc := int(le.Uint32(data[22:]))
	if b < 1 {
		return nil, Shape{}, 0, fmt.Errorf("layout: non-positive block size %d", b)
	}
	// Divide rather than multiply: PR*PC of two u32 fields can wrap
	// negative and pass a bound.
	if pr < 1 || pc < 1 || pr > maxSerializedGrid/pc {
		return nil, Shape{}, 0, fmt.Errorf("layout: implausible %dx%d worker grid", pr, pc)
	}
	// The dims are wire input: bound m*n by division against the bytes
	// actually present before anything multiplies or allocates.
	if have := uint64(len(data)-serializeHdrLen) / 8; um != 0 && un > have/um {
		return nil, Shape{}, 0, fmt.Errorf("layout: truncated payload: have %d bytes, too few for %dx%d", len(data), um, un)
	}
	// An empty layout has no payload to bound it, yet decoding and
	// encoding it, and any loop over its columns (rows), still take a
	// step for each.
	if (um == 0 || un == 0) && um+un > maxSerializedGrid {
		return nil, Shape{}, 0, fmt.Errorf("layout: implausible empty %dx%d layout", um, un)
	}
	s := NewShape(kind, int(um), int(un), b, Grid{PR: pr, PC: pc})
	d := mat.New(s.m, s.n)
	eachBlockColumn(s, d, func(j int, col kernel.View) { getRun(col, s, 0, j, data) })
	return d, s, EncodedLen(s.m, s.n), nil
}

// getRun is putRun's inverse: it fills run from its offsets in data.
func getRun(run kernel.View, s Shape, i, j int, data []byte) {
	le := binary.LittleEndian
	eachBlock(run, i, s.b, func(i int, v kernel.View) {
		src := data[blockOffset(s, i, j):]
		for jj := 0; jj < v.Cols; jj++ {
			col := v.Data[jj*v.Stride : jj*v.Stride+v.Rows]
			for k := range col {
				col[k] = math.Float64frombits(le.Uint64(src))
				src = src[8:]
			}
		}
	})
}
