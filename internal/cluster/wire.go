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
// as a small header, the pivot permutation, and each factor in the
// layout package's block encoding (HSDL), written straight from the
// owner's dense factor and decoded straight into the replica's, so
// values round-trip bit-identically and a replica's solve reproduces
// the owner's solve exactly.
//
//	magic "HSDW" | version u8 | kind u8 (1=LU, 2=Cholesky)
//	| permLen u32 | perm u32... (LU only; Cholesky has no pivoting)
//	| HSDL(L) | HSDL(U)   (U for LU only)
//
// Run metadata (Makespan, Counters, Stats) describes the original
// execution, not the factors; it does not travel.

const (
	wireMagic   = "HSDW"
	wireVersion = 1
	wireKindLU  = 1
	wireKindCh  = 2
	wireHdrLen  = 4 + 1 + 1

	// wireBlock is the tile size factors are encoded with: two-level
	// tiles on a single-worker grid, since wire bytes carry no
	// ownership. Any positive value decodes; 128 is what every shard
	// has sent.
	wireBlock = 128
)

// EncodeFactorization serializes a kept factorization: exactly one of
// lu, chol must be non-nil.
func EncodeFactorization(lu *core.Factorization, chol *core.CholeskyFactorization) ([]byte, error) {
	if (lu != nil) == (chol != nil) {
		return nil, fmt.Errorf("cluster: need exactly one of LU or Cholesky to encode")
	}
	kind, size, factors := byte(wireKindLU), wireHdrLen, []*mat.Dense{}
	if chol != nil {
		kind, factors = wireKindCh, append(factors, chol.L)
	} else {
		size += 4 + 4*len(lu.Perm)
		factors = append(factors, lu.L, lu.U)
	}
	for _, d := range factors {
		size += layout.EncodedLen(d.Rows, d.Cols)
	}
	out := append(append(make([]byte, 0, size), wireMagic...), wireVersion, kind)
	if lu != nil {
		le := binary.LittleEndian
		out = le.AppendUint32(out, uint32(len(lu.Perm)))
		for _, p := range lu.Perm {
			if p < 0 || int64(p) > int64(^uint32(0)) {
				return nil, fmt.Errorf("cluster: permutation entry %d out of wire range", p)
			}
			out = le.AppendUint32(out, uint32(p))
		}
	}
	for _, d := range factors {
		out = layout.AppendDense(out, layout.TwoLevel, d, wireBlock, layout.NewGrid(1))
	}
	return out, nil
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
		d, _, n, err := layout.DecodeDense(rest)
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: cholesky factor: %w", err)
		}
		if len(rest) != n {
			return nil, nil, fmt.Errorf("cluster: %d trailing bytes after cholesky factor", len(rest)-n)
		}
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
		// A solve indexes rows through it: refuse any row out of range or twice.
		perm, seen := make([]int, plen), make([]bool, plen)
		for i := range perm {
			p := le.Uint32(rest[4*i:])
			if uint64(p) >= uint64(plen) || seen[p] {
				return nil, nil, fmt.Errorf("cluster: permutation entry %d (row %d) is out of range or repeated", i, p)
			}
			perm[i], seen[p] = int(p), true
		}
		rest = rest[4*plen:]
		ld, _, n, err := layout.DecodeDense(rest)
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: L factor: %w", err)
		}
		rest = rest[n:]
		ud, _, n, err := layout.DecodeDense(rest)
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: U factor: %w", err)
		}
		if len(rest) != n {
			return nil, nil, fmt.Errorf("cluster: %d trailing bytes after U factor", len(rest)-n)
		}
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
