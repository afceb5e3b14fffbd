package kernel

// Packing routines of the packed GEMM. Both produce the contiguous,
// micro-kernel-native formats for a caller-supplied register-tile
// width (tmr rows of A, tnr columns of B): the GEMM path passes the
// active mr/nr, the blocked-GETRF panel path its fixed pmr/pnr.
//
//	ap: ceil(mcLen/tmr) row panels, each kcLen*tmr doubles; element
//	    (i, l) of panel p is ap[p*kcLen*tmr + l*tmr + i] = A(ic+p*tmr+i, pc+l).
//	bp: ceil(ncLen/tnr) column panels, each kcLen*tnr doubles; element
//	    (l, j) of panel q is bp[q*kcLen*tnr + l*tnr + j] = B(pc+l, jc+q*tnr+j).
//
// Edge panels are zero-padded to full tmr/tnr width so the micro-kernel
// never branches on tile shape; the macro-kernel masks the write-back
// instead. Padding multiplies by zero, which is exact for the finite
// values that survive to the update (Inf/NaN blow-ups still propagate
// through the unpadded lanes).

// packA packs the mcLen x kcLen block of a at (ic, pc) into dst as
// tmr-row panels.
func packA(dst []float64, a View, ic, pc, mcLen, kcLen, tmr int) {
	idx := 0
	for p := 0; p < mcLen; p += tmr {
		rows := min(tmr, mcLen-p)
		if rows == 8 && tmr == 8 {
			// The full panel of every vector kernel: eight moves beat a
			// memmove call per column.
			for l := 0; l < kcLen; l++ {
				off := (pc+l)*a.Stride + ic + p
				s := a.Data[off : off+8 : off+8]
				d := dst[idx : idx+8 : idx+8]
				d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
				idx += 8
			}
			continue
		}
		for l := 0; l < kcLen; l++ {
			col := a.Data[(pc+l)*a.Stride+ic+p:]
			d := dst[idx : idx+tmr]
			copy(d, col[:rows])
			for i := rows; i < tmr; i++ {
				d[i] = 0
			}
			idx += tmr
		}
	}
}

// packB packs the kcLen x ncLen block of b at (pc, jc) into dst as
// tnr-column panels. With trans set, b is read transposed — element
// (l, j) comes from B(jc+q*tnr+j, pc+l) — which is what GemmNT
// (C -= A*Bᵀ) needs; the packed format is identical either way, so the
// micro-kernel is oblivious.
func packB(dst []float64, b View, pc, jc, kcLen, ncLen int, trans bool, tnr int) {
	base := 0
	for q := 0; q < ncLen; q += tnr {
		cols := min(tnr, ncLen-q)
		if trans {
			// Bᵀ(l, j) = B(jc+q+j, pc+l): row jc+q+j is contiguous along l
			// only in steps of Stride, but column pc+l of B holds the j run
			// contiguously — read it.
			for l := 0; l < kcLen; l++ {
				row := b.Data[(pc+l)*b.Stride+jc+q:]
				d := dst[base+l*tnr : base+l*tnr+tnr]
				copy(d, row[:cols])
				for j := cols; j < tnr; j++ {
					d[j] = 0
				}
			}
		} else {
			for j := 0; j < cols; j++ {
				col := b.Data[(jc+q+j)*b.Stride+pc:]
				for l := 0; l < kcLen; l++ {
					dst[base+l*tnr+j] = col[l]
				}
			}
			for j := cols; j < tnr; j++ {
				for l := 0; l < kcLen; l++ {
					dst[base+l*tnr+j] = 0
				}
			}
		}
		base += kcLen * tnr
	}
}
