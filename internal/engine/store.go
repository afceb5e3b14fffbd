package engine

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
)

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
	Count       int   `json:"count"`
	Bytes       int64 `json:"bytes"`
	BudgetBytes int64 `json:"budgetBytes"`
	Keep        int   `json:"keep"`
	Evictions   int64 `json:"evictions"` // entries dropped by the keep or byte bound
	Imports     int64 `json:"imports"`   // entries stored under an explicit id (PutAs)
}

// storeEntry is one resident factorization plus eviction bookkeeping.
type storeEntry struct {
	f     core.Factored
	bytes int64
}

// Store is the engine-level keep-store for completed factorizations,
// LU and Cholesky alike, each charged its SizeBytes: an LRU keyed by id,
// bounded by entry count and estimated bytes. The serving tier keeps
// one per shard; replication imports entries under their cluster-wide
// id with PutAs and exports them with Get/IDs. Safe for concurrent use.
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

// insertLocked stores f under id at the most-recently-used position
// and evicts past either bound — but never the entry just stored:
// every store must leave a live id, even when one factorization alone
// exceeds the byte budget.
func (s *Store) insertLocked(id string, f core.Factored) {
	s.removeLocked(id) // overwrite: the new entry takes the MRU position
	e := &storeEntry{f: f, bytes: f.SizeBytes()}
	s.entries[id] = e
	s.bytes += e.bytes
	s.order = append(s.order, id)
	for len(s.order) > 1 &&
		(len(s.order) > s.opt.Keep || (s.opt.MemBudget > 0 && s.bytes > s.opt.MemBudget)) {
		s.removeLocked(s.order[0])
		s.evictions++
	}
}

// Put stores f under a fresh generated id "<prefix>-<seq>" and returns
// the id.
func (s *Store) Put(prefix string, f core.Factored) string {
	if f == nil {
		panic("engine: Store.Put needs a factorization")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	id := fmt.Sprintf("%s-%d", prefix, s.next)
	s.insertLocked(id, f)
	return id
}

// PutAs stores f under an explicit id — the import half of cluster
// replication, where the id is the cluster-wide factorization key and
// must survive the hop. An existing entry under id is replaced.
func (s *Store) PutAs(id string, f core.Factored) {
	if f == nil {
		panic("engine: Store.PutAs needs a factorization")
	}
	if id == "" {
		panic("engine: Store.PutAs needs a non-empty id")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.insertLocked(id, f)
	s.imports++
}

// Get returns the entry under id, refreshing its recency.
func (s *Store) Get(id string) (core.Factored, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	if !ok {
		return nil, false
	}
	i := slices.Index(s.order, id) // bump to most-recently-used
	s.order = append(slices.Delete(s.order, i, i+1), id)
	return e.f, true
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
