// Shared-store mode: many harness or server jobs drawing segments from
// one logical Overlay Memory Store through a lock-striped interface.
package oms

import "sync"

// Shared fronts a set of Store shards with one mutex per shard. Callers
// address the store by an opaque key (a tenant id, an overlay page
// number, a job handle); the key picks the stripe, so operations on
// different stripes proceed in parallel while operations that collide on
// a stripe serialise. Each shard owns its Store (and that Store's
// Memory) outright — no segment state is shared between stripes, which
// is what makes the striping sound without any cross-shard ordering.
type Shared struct {
	shards []sharedShard
}

type sharedShard struct {
	mu sync.Mutex
	st *Store
}

// NewShared builds a lock-striped front over the given shards. The
// stores must not be touched directly once handed over.
func NewShared(stores []*Store) *Shared {
	if len(stores) == 0 {
		panic("oms: NewShared with no shards")
	}
	sh := &Shared{shards: make([]sharedShard, len(stores))}
	for i, st := range stores {
		sh.shards[i].st = st
	}
	return sh
}

// With runs fn against the shard the key stripes to, holding that
// shard's lock for the duration. fn must not retain the *Store.
func (sh *Shared) With(key uint64, fn func(*Store)) {
	s := &sh.shards[key%uint64(len(sh.shards))]
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(s.st)
}
