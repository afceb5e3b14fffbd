package cluster

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
