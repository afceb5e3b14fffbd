package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/mat"
)

// The factorization wire format a shard exports when the router
// replicates, migrates or drains kept state: a header, the pivots and
// each factor as HSDL (layout), streamed one block row at a time
// through a parked buffer, so no hop holds a whole frame and a
// replica's solve reproduces the owner's bit for bit.
//
//	magic "HSDW" | version u8 | kind u8 (1=LU, 2=Cholesky)
//	| permLen u32 | perm u32... (LU only; Cholesky has no pivoting)
//	| HSDL(L) | HSDL(U)   (U for LU only)
//
// Run metadata (Makespan, Counters, Stats) does not travel.

const (
	wireMagic   = "HSDW"
	wireVersion = 1
	wireKindLU  = 1
	wireKindCh  = 2
	wireHdrLen  = 4 + 1 + 1

	// wireBlock is the tile size factors are encoded with, as two-level
	// tiles on a single-worker grid: wire bytes carry no ownership.
	wireBlock = 128
)

// Frame is a factorization checked for the wire: a shard can declare
// its byte length Len, then stream it into a reply by Encode.
type Frame struct {
	Len     int64
	head    []byte // magic, version, kind and, for LU, the permutation
	factors []*mat.Dense
}

// NewFrame checks exactly one of lu, chol for the wire — every pivot
// must fit a u32 — and returns its frame.
func NewFrame(lu *core.Factorization, chol *core.CholeskyFactorization) (*Frame, error) {
	if (lu != nil) == (chol != nil) {
		return nil, fmt.Errorf("cluster: need exactly one of LU or Cholesky to encode")
	}
	fr := &Frame{head: append([]byte(wireMagic), wireVersion, wireKindCh)}
	if chol != nil {
		fr.factors = []*mat.Dense{chol.L}
	} else {
		le := binary.LittleEndian
		fr.head[5], fr.factors = wireKindLU, []*mat.Dense{lu.L, lu.U}
		fr.head = le.AppendUint32(fr.head, uint32(len(lu.Perm)))
		for _, p := range lu.Perm {
			if p < 0 || int64(p) > int64(^uint32(0)) {
				return nil, fmt.Errorf("cluster: permutation entry %d out of wire range", p)
			}
			fr.head = le.AppendUint32(fr.head, uint32(p))
		}
	}
	fr.Len = int64(len(fr.head))
	for _, d := range fr.factors {
		fr.Len += int64(layout.EncodedLen(d.Rows, d.Cols))
	}
	return fr, nil
}

// Encode writes the frame's Len bytes to w, minBuf at a time.
func (fr *Frame) Encode(w io.Writer) error {
	buf := takeBuf(minBuf)
	defer putBuf(buf)
	_, err := w.Write(fr.head)
	for _, d := range fr.factors {
		if err == nil {
			err = layout.WriteDense(w, buf, layout.TwoLevel, d, wireBlock, layout.NewGrid(1))
		}
	}
	return err
}

// EncodeFactorization is NewFrame's frame as one byte string, for the
// benchmark's cluster.wire_encode_s probe; the shards stream frames.
func EncodeFactorization(lu *core.Factorization, chol *core.CholeskyFactorization) ([]byte, error) {
	fr, err := NewFrame(lu, chol)
	if err != nil {
		return nil, err
	}
	out := bytes.NewBuffer(make([]byte, 0, fr.Len))
	err = fr.Encode(out)
	return out.Bytes(), err
}

// DecodeFactorization is ReadFactorization over one byte string, for
// the benchmark's cluster.wire_decode_s probe.
func DecodeFactorization(data []byte) (*core.Factorization, *core.CholeskyFactorization, error) {
	f, err := ReadFactorization(bytes.NewReader(data), int64(len(data)))
	lu, _ := f.(*core.Factorization)
	chol, _ := f.(*core.CholeskyFactorization)
	return lu, chol, err
}

// ReadFactorization reads one frame, which r must end with, straight
// into the factors it returns. limit is the most bytes r can carry: a
// permutation or factor that cannot fit is refused before allocation.
func ReadFactorization(r io.Reader, limit int64) (core.Factored, error) {
	hdr := make([]byte, wireHdrLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("cluster: reading wire header: %w", err)
	}
	if string(hdr[:4]) != wireMagic || hdr[4] != wireVersion {
		return nil, fmt.Errorf("cluster: bad wire magic or version %q", hdr[:5])
	}
	limit -= wireHdrLen
	buf := takeBuf(minBuf)
	defer putBuf(buf)
	factor := func(name string) (*mat.Dense, error) {
		d, s, err := layout.ReadDense(r, limit, buf)
		if err != nil {
			return nil, fmt.Errorf("cluster: %s factor: %w", name, err)
		}
		m, n, _ := s.Dims()
		limit -= int64(layout.EncodedLen(m, n))
		return d, nil
	}
	var f core.Factored
	switch kind := hdr[5]; kind {
	case wireKindCh:
		l, err := factor("cholesky")
		if err == nil && l.Rows != l.Cols {
			err = fmt.Errorf("cluster: cholesky factor is %dx%d, want square", l.Rows, l.Cols)
		}
		if err != nil {
			return nil, err
		}
		f = &core.CholeskyFactorization{L: l}
	case wireKindLU:
		if _, err := io.ReadFull(r, hdr[:4]); err != nil {
			return nil, fmt.Errorf("cluster: truncated permutation length: %w", err)
		}
		plen := int64(binary.LittleEndian.Uint32(hdr))
		if limit -= 4 + 4*plen; limit < 0 {
			return nil, fmt.Errorf("cluster: truncated permutation (%d entries)", plen)
		}
		raw := make([]byte, 4*plen)
		if _, err := io.ReadFull(r, raw); err != nil {
			return nil, fmt.Errorf("cluster: truncated permutation (%d entries): %w", plen, err)
		}
		// A solve indexes rows through it: refuse any row out of range or twice.
		perm, seen := make([]int, plen), make([]bool, plen)
		for i := range perm {
			p := binary.LittleEndian.Uint32(raw[4*i:])
			if int64(p) >= plen || seen[p] {
				return nil, fmt.Errorf("cluster: permutation entry %d (row %d) is out of range or repeated", i, p)
			}
			perm[i], seen[p] = int(p), true
		}
		l, err := factor("L")
		if err == nil && int64(l.Rows) != plen {
			err = fmt.Errorf("cluster: permutation length %d does not match L rows %d", plen, l.Rows)
		}
		if err != nil {
			return nil, err
		}
		u, err := factor("U")
		if err == nil && l.Cols != u.Rows {
			err = fmt.Errorf("cluster: factor shapes %dx%d / %dx%d do not chain", l.Rows, l.Cols, u.Rows, u.Cols)
		}
		if err != nil {
			return nil, err
		}
		f = &core.Factorization{Perm: perm, L: l, U: u}
	default:
		return nil, fmt.Errorf("cluster: unknown wire kind %d", kind)
	}
	if n, _ := io.ReadFull(r, hdr[:1]); n > 0 {
		return nil, fmt.Errorf("cluster: trailing bytes after the frame")
	}
	return f, nil
}
