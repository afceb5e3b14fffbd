package cluster

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/mat"
)

// The factorization wire format: what a shard exports when the router
// replicates, migrates or drains kept state. A factorization travels
// as a small header, the pivot permutation, and the packed factor
// blocks — each factor serialized through the layout package's block
// iteration (layout.Encode), so values round-trip bit-identically and
// a replica's solve reproduces the owner's solve exactly.
//
//	magic "HSDW" | version u8 | kind u8 (1=LU, 2=Cholesky)
//	| permLen u32 | perm u32... (LU only; Cholesky has no pivoting)
//	| layout.Encode(L) | layout.Encode(U)   (U for LU only)
//
// Run metadata (Makespan, Counters, Stats) describes the original
// execution, not the factors; it does not travel.

const (
	wireMagic   = "HSDW"
	wireVersion = 1
	wireKindLU  = 1
	wireKindCh  = 2
	wireHdrLen  = 4 + 1 + 1

	// wireBlock is the tile size factors are packed with on the wire.
	// Any positive value round-trips; 128 keeps tile count low without
	// creating huge contiguous runs.
	wireBlock = 128
)

// wireLayout wraps a dense factor for encoding: two-level tiles (each
// tile contiguous — the natural pack format) on a single-worker grid,
// since wire bytes carry no ownership.
func wireLayout(d *mat.Dense) layout.Layout {
	return layout.New(layout.TwoLevel, d, wireBlock, layout.NewGrid(1))
}

// EncodeFactorization serializes a kept factorization: exactly one of
// lu, chol must be non-nil.
func EncodeFactorization(lu *core.Factorization, chol *core.CholeskyFactorization) ([]byte, error) {
	if (lu != nil) == (chol != nil) {
		return nil, fmt.Errorf("cluster: need exactly one of LU or Cholesky to encode")
	}
	hdr := func(kind byte, size int) []byte {
		return append(append(make([]byte, 0, wireHdrLen+size), wireMagic...), wireVersion, kind)
	}
	if chol != nil {
		l := wireLayout(chol.L)
		return append(hdr(wireKindCh, layout.EncodedLen(l)), layout.Encode(l)...), nil
	}
	ll, ul := wireLayout(lu.L), wireLayout(lu.U)
	out := hdr(wireKindLU, 4+4*len(lu.Perm)+layout.EncodedLen(ll)+layout.EncodedLen(ul))
	le := binary.LittleEndian
	out = le.AppendUint32(out, uint32(len(lu.Perm)))
	for _, p := range lu.Perm {
		if p < 0 || int64(p) > int64(^uint32(0)) {
			return nil, fmt.Errorf("cluster: permutation entry %d out of wire range", p)
		}
		out = le.AppendUint32(out, uint32(p))
	}
	return append(append(out, layout.Encode(ll)...), layout.Encode(ul)...), nil
}

// DecodeFactorization inverts EncodeFactorization. The returned
// factorization carries the factors and permutation only — run
// metadata is zero.
func DecodeFactorization(data []byte) (*core.Factorization, *core.CholeskyFactorization, error) {
	if len(data) < wireHdrLen {
		return nil, nil, fmt.Errorf("cluster: wire data too short (%d bytes)", len(data))
	}
	if string(data[:4]) != wireMagic {
		return nil, nil, fmt.Errorf("cluster: bad wire magic %q", data[:4])
	}
	if data[4] != wireVersion {
		return nil, nil, fmt.Errorf("cluster: unsupported wire version %d", data[4])
	}
	kind := data[5]
	rest := data[wireHdrLen:]
	switch kind {
	case wireKindCh:
		l, n, err := layout.Decode(rest)
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: cholesky factor: %w", err)
		}
		if len(rest) != n {
			return nil, nil, fmt.Errorf("cluster: %d trailing bytes after cholesky factor", len(rest)-n)
		}
		d := l.ToDense()
		if d.Rows != d.Cols {
			return nil, nil, fmt.Errorf("cluster: cholesky factor is %dx%d, want square", d.Rows, d.Cols)
		}
		return nil, &core.CholeskyFactorization{L: d}, nil
	case wireKindLU:
		le := binary.LittleEndian
		if len(rest) < 4 {
			return nil, nil, fmt.Errorf("cluster: truncated permutation length")
		}
		plen := int(le.Uint32(rest))
		rest = rest[4:]
		if plen > len(rest)/4 {
			return nil, nil, fmt.Errorf("cluster: truncated permutation (%d entries)", plen)
		}
		perm := make([]int, plen)
		for i := range perm {
			perm[i] = int(le.Uint32(rest[4*i:]))
		}
		rest = rest[4*plen:]
		ll, n, err := layout.Decode(rest)
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: L factor: %w", err)
		}
		rest = rest[n:]
		lu, n, err := layout.Decode(rest)
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: U factor: %w", err)
		}
		if len(rest) != n {
			return nil, nil, fmt.Errorf("cluster: %d trailing bytes after U factor", len(rest)-n)
		}
		ld, ud := ll.ToDense(), lu.ToDense()
		if ld.Rows != plen {
			return nil, nil, fmt.Errorf("cluster: permutation length %d does not match L rows %d", plen, ld.Rows)
		}
		if ld.Cols != ud.Rows {
			return nil, nil, fmt.Errorf("cluster: factor shapes %dx%d / %dx%d do not chain",
				ld.Rows, ld.Cols, ud.Rows, ud.Cols)
		}
		return &core.Factorization{Perm: perm, L: ld, U: ud}, nil, nil
	default:
		return nil, nil, fmt.Errorf("cluster: unknown wire kind %d", kind)
	}
}
