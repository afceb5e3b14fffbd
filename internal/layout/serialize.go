package layout

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/kernel"
)

// Serialization: a layout travels as a fixed header followed by its
// blocks in block-iteration order — block row by block row, each block
// written column by column as raw float64 bits. Iterating blocks (not
// the dense matrix) is what makes the format layout-faithful: the
// decoder rebuilds the same physical placement (the same per-worker
// submatrices for BCL, the same contiguous tiles for 2l-BL) instead of
// a dense copy, and the cluster tier's factorization wire format rides
// it directly. Float values round-trip bit-identically via
// math.Float64bits, which is what lets a replicated solve reproduce
// the owner's solve exactly.
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
	// empty layout: a crafted header must not make build allocate
	// per-worker submatrices for millions of phantom workers, or walk
	// millions of phantom columns.
	maxSerializedGrid = 1 << 16
)

// EncodedLen returns the exact byte length Encode produces for l.
func EncodedLen(l Layout) int {
	m, n, _ := l.Dims()
	return serializeHdrLen + 8*m*n
}

// blockOffset is the byte offset of block (i,j) in an encoded layout of
// shape s: past the full block rows above it and the blocks to its left.
func blockOffset(s Shape, i, j int) int {
	r, _ := s.BlockDims(i, j)
	return serializeHdrLen + 8*(i*s.b*s.n+r*j*s.b)
}

// Encode serializes l — kind, dims, grid and every block's values —
// into a self-delimiting byte string. Decode inverts it exactly.
func Encode(l Layout) []byte {
	s := ShapeOf(l)
	m, n, b := s.Dims()
	g := s.Grid()
	out := make([]byte, EncodedLen(l))
	copy(out, serializeMagic)
	out[4] = serializeVersion
	out[5] = byte(l.Kind())
	le := binary.LittleEndian
	le.PutUint32(out[6:], uint32(m))
	le.PutUint32(out[10:], uint32(n))
	le.PutUint32(out[14:], uint32(b))
	le.PutUint32(out[18:], uint32(g.PR))
	le.PutUint32(out[22:], uint32(g.PC))
	WalkColumns(l, func(i, j int, run kernel.View) {
		eachBlock(run, i, b, func(i int, v kernel.View) {
			p := out[blockOffset(s, i, j):]
			for jj := 0; jj < v.Cols; jj++ {
				for _, x := range v.Data[jj*v.Stride : jj*v.Stride+v.Rows] {
					le.PutUint64(p, math.Float64bits(x))
					p = p[8:]
				}
			}
		})
	})
	return out
}

// eachBlock calls f on every block of run, a storage run whose first
// block row is i: the wire keeps block order whatever the walk's grain.
func eachBlock(run kernel.View, i, b int, f func(i int, blk kernel.View)) {
	for r := 0; r < run.Rows; r += b {
		f(i+r/b, run.Sub(r, min(r+b, run.Rows), 0, run.Cols))
	}
}

// Decode reconstructs a layout from data produced by Encode and
// reports how many bytes it consumed, so encoded layouts can be
// concatenated (the factorization wire format stacks two). The
// returned layout owns fresh storage.
func Decode(data []byte) (Layout, int, error) {
	if len(data) < serializeHdrLen {
		return nil, 0, fmt.Errorf("layout: encoded data too short (%d bytes)", len(data))
	}
	if string(data[:4]) != serializeMagic {
		return nil, 0, fmt.Errorf("layout: bad magic %q", data[:4])
	}
	if data[4] != serializeVersion {
		return nil, 0, fmt.Errorf("layout: unsupported format version %d", data[4])
	}
	kind := Kind(data[5])
	switch kind {
	case CM, BCL, TwoLevel:
	default:
		return nil, 0, fmt.Errorf("layout: unknown layout kind %d", data[5])
	}
	le := binary.LittleEndian
	um, un := uint64(le.Uint32(data[6:])), uint64(le.Uint32(data[10:]))
	b := int(le.Uint32(data[14:]))
	pr := int(le.Uint32(data[18:]))
	pc := int(le.Uint32(data[22:]))
	if b < 1 {
		return nil, 0, fmt.Errorf("layout: non-positive block size %d", b)
	}
	// Divide rather than multiply: PR*PC of two u32 fields can wrap
	// negative and pass a bound.
	if pr < 1 || pc < 1 || pr > maxSerializedGrid/pc {
		return nil, 0, fmt.Errorf("layout: implausible %dx%d worker grid", pr, pc)
	}
	// The dims are wire input: bound m*n by division against the bytes
	// actually present before anything multiplies or allocates.
	if have := uint64(len(data)-serializeHdrLen) / 8; um != 0 && un > have/um {
		return nil, 0, fmt.Errorf("layout: truncated payload: have %d bytes, too few for %dx%d", len(data), um, un)
	}
	// An empty layout has no payload to bound it, yet decoding and
	// encoding it, and any loop over its columns (rows), still take a
	// step for each.
	if (um == 0 || un == 0) && um+un > maxSerializedGrid {
		return nil, 0, fmt.Errorf("layout: implausible empty %dx%d layout", um, un)
	}
	m, n := int(um), int(un)
	s := NewShape(kind, m, n, b, Grid{PR: pr, PC: pc})
	l := build(s, func(i, j int, run kernel.View) {
		eachBlock(run, i, b, func(i int, v kernel.View) {
			src := data[blockOffset(s, i, j):]
			for jj := 0; jj < v.Cols; jj++ {
				col := v.Data[jj*v.Stride : jj*v.Stride+v.Rows]
				for k := range col {
					col[k] = math.Float64frombits(le.Uint64(src))
					src = src[8:]
				}
			}
		})
	})
	return l, serializeHdrLen + 8*m*n, nil
}
