package engine

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/mat"
)

// Kept is one resident factorization in a Store: exactly one of LU or
// Chol is set. It is the unit the serving tier keeps for /v1/solve and
// the unit the cluster tier exports, ships and imports between shards.
type Kept struct {
	LU   *core.Factorization
	Chol *core.CholeskyFactorization
}

// KeptOf wraps a factorization job's Result; any other result (a
// solution, nil) yields the invalid zero Kept.
func KeptOf(result any) Kept {
	lu, _ := result.(*core.Factorization)
	chol, _ := result.(*core.CholeskyFactorization)
	return Kept{LU: lu, Chol: chol}
}

// Valid reports whether exactly one factorization is set.
func (k Kept) Valid() bool { return (k.LU != nil) != (k.Chol != nil) }

// N returns the order of the stored system.
func (k Kept) N() int {
	if k.LU != nil {
		return k.LU.L.Rows
	}
	return k.Chol.L.Rows
}

// Solvable returns the factorization behind the engine's Solvable
// interface.
func (k Kept) Solvable() Solvable {
	if k.LU != nil {
		return k.LU
	}
	return k.Chol
}

// Residual returns the normalized backward error of the factorization
// against the matrix a it was computed from (an O(n^3) check).
func (k Kept) Residual(a *mat.Dense) float64 {
	if k.LU != nil {
		return core.Residual(a, k.LU)
	}
	return core.CholeskyResidual(a, k.Chol)
}

// sizeBytes estimates the resident cost of the factors (the dominant
// allocations; pivot vectors and metadata are noise at this scale). A
// Cholesky entry is charged for L and for the n x n Lᵀ its first solve
// materializes and keeps for the factor's lifetime, so a solved entry
// costs what was charged when it was stored.
func (k Kept) sizeBytes() int64 {
	if k.LU != nil {
		return int64(len(k.LU.L.Data)+len(k.LU.U.Data)) * 8
	}
	return 2 * int64(len(k.Chol.L.Data)) * 8
}

// StoreOptions bounds a Store.
type StoreOptions struct {
	// Keep is the entry-count bound (min 1: every Put must leave its
	// entry resident so the caller's reply references a live id).
	Keep int
	// MemBudget bounds the estimated resident bytes; 0 = unbounded.
	MemBudget int64
}

// StoreStats is a point-in-time snapshot of a Store.
type StoreStats struct {
	Count       int
	Bytes       int64
	BudgetBytes int64
	Keep        int
	Evictions   int64 // entries dropped by the keep or byte bound
	Imports     int64 // entries stored under an explicit id (PutAs)
}

// storeEntry is one resident factorization plus eviction bookkeeping.
type storeEntry struct {
	k     Kept
	bytes int64
}

// Store is the engine-level keep-store for completed factorizations:
// an LRU keyed by id, bounded by entry count and estimated bytes. The
// serving tier keeps one per shard; replication imports entries under
// their cluster-wide id with PutAs and exports them with Get/IDs. Safe
// for concurrent use.
type Store struct {
	opt StoreOptions

	mu        sync.Mutex
	next      int
	bytes     int64
	order     []string // LRU order: front = least recently used
	entries   map[string]*storeEntry
	evictions int64
	imports   int64
}

// NewStore builds a store; Keep is clamped to >= 1.
func NewStore(opt StoreOptions) *Store {
	if opt.Keep < 1 {
		opt.Keep = 1
	}
	return &Store{opt: opt, entries: map[string]*storeEntry{}}
}

// removeLocked drops one entry (mu held).
func (s *Store) removeLocked(id string) {
	e, ok := s.entries[id]
	if !ok {
		return
	}
	delete(s.entries, id)
	s.bytes -= e.bytes
	i := slices.Index(s.order, id)
	s.order = slices.Delete(s.order, i, i+1)
}

// insertLocked stores k under id at the most-recently-used position
// and evicts past either bound — but never the entry just stored:
// every store must leave a live id, even when one factorization alone
// exceeds the byte budget.
func (s *Store) insertLocked(id string, k Kept) {
	s.removeLocked(id) // overwrite: the new entry takes the MRU position
	e := &storeEntry{k: k, bytes: k.sizeBytes()}
	s.entries[id] = e
	s.bytes += e.bytes
	s.order = append(s.order, id)
	for len(s.order) > 1 &&
		(len(s.order) > s.opt.Keep || (s.opt.MemBudget > 0 && s.bytes > s.opt.MemBudget)) {
		s.removeLocked(s.order[0])
		s.evictions++
	}
}

// Put stores k under a fresh generated id "<prefix>-<seq>" and returns
// the id.
func (s *Store) Put(prefix string, k Kept) string {
	if !k.Valid() {
		panic("engine: Store.Put needs exactly one of LU or Chol")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	id := fmt.Sprintf("%s-%d", prefix, s.next)
	s.insertLocked(id, k)
	return id
}

// PutAs stores k under an explicit id — the import half of cluster
// replication, where the id is the cluster-wide factorization key and
// must survive the hop. An existing entry under id is replaced.
func (s *Store) PutAs(id string, k Kept) {
	if !k.Valid() {
		panic("engine: Store.PutAs needs exactly one of LU or Chol")
	}
	if id == "" {
		panic("engine: Store.PutAs needs a non-empty id")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.insertLocked(id, k)
	s.imports++
}

// Get returns the entry under id, refreshing its recency.
func (s *Store) Get(id string) (Kept, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	if !ok {
		return Kept{}, false
	}
	i := slices.Index(s.order, id) // bump to most-recently-used
	s.order = append(slices.Delete(s.order, i, i+1), id)
	return e.k, true
}

// IDs returns the resident ids in sorted order — the export listing a
// drain or rebalance enumerates.
func (s *Store) IDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := append([]string{}, s.order...)
	slices.Sort(ids)
	return ids
}

// Len returns the resident entry count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Stats snapshots the store.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Count:       len(s.entries),
		Bytes:       s.bytes,
		BudgetBytes: s.opt.MemBudget,
		Keep:        s.opt.Keep,
		Evictions:   s.evictions,
		Imports:     s.imports,
	}
}
