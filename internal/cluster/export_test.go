package cluster

import "io"

// What the external tests reach that no other package calls.

// DecodeJSON is decodeJSON, the request guards' decoder.
func DecodeJSON[T any](data []byte, v *T) error { return decodeJSON(data, v) }

// ProbeNow runs one health-probe pass now instead of waiting out a
// probe interval.
func (rt *Router) ProbeNow() { rt.probeNow() }

// Drain retires a shard as POST /v1/admin/drain does.
func (rt *Router) Drain(name string) error { return rt.drain(name) }

// Owners is the owner set of key, n long, on a ring of members: the
// placement a router over those shards computes, recomputed offline.
func Owners(members []string, key string, n int) []string {
	r := newRing()
	for _, m := range members {
		r.add(m)
	}
	return r.owners(key, n)
}

// TakeBuf and PutBuf take a buffer from the request guards' free list
// and park one on it.
func TakeBuf(n int) []byte { return takeBuf(n) }
func PutBuf(b []byte)      { putBuf(b) }

// ResetBufs empties the free list, so the next buffer parked fits.
func ResetBufs() {
	parked.Lock()
	parked.bytes, parked.free = 0, [len(parked.free)][][]byte{}
	parked.Unlock()
}

// ForwardedBody reads data as the guards read a body and returns a
// reader over it, as the router forwards it, and the handler's release.
func ForwardedBody(data []byte) (io.ReadCloser, func()) {
	b := &body{b: append(takeBuf(len(data))[:0], data...)}
	b.refs.Add(1)
	return b.reader(), b.release
}
