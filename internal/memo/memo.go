// Package memo is the repository's one bounded memo. Whatever is kept
// under a key a caller chooses — the service's solver cache, a machine's
// and a fault set's route enumerations, a Solver's candidate sets, task
// starts, validation and baseline, a repair session's reports — is a
// Cache: one eviction rule, and one answer to how long a derived value
// lives (DESIGN §3.11 lists every memo).
package memo

import (
	"sync"
	"sync/atomic"
)

// Cache memoizes build results by key, keeping the most recently used
// up to a bound fixed at construction. Safe for concurrent use; not to
// be copied once used. A key must equal itself: a NaN could be neither
// found nor evicted.
type Cache[K comparable, V any] struct {
	mu   sync.Mutex
	cap  int
	ent  map[K]*entry[K, V] // made by the first insert
	root entry[K, V]        // recency ring: root.next the most recently used, root.prev the least
	st   Stats              // but Len, which is len(ent)
}

// entry is one key's slot and its place in the recency ring. mu
// serializes the key's builds; v is written once, before ready, so a
// reader that saw ready needs no lock.
type entry[K comparable, V any] struct {
	key        K
	prev, next *entry[K, V]
	mu         sync.Mutex
	ready      atomic.Bool
	v          V
}

// Stats are a Cache's counters: Gets by whether the key had an entry,
// built or still building, when they looked it up; entries pushed out
// at the bound (one dropped for its failed build is not an eviction);
// and the entries held, those still building included — so, for as long
// as builds are running, up to that many past the bound.
type Stats struct {
	Hits, Misses, Evictions int64
	Len                     int
}

// New returns an empty Cache of at most bound entries (at least 1), by
// value so that an owner can hold it as a field: an unused one costs no
// allocation.
func New[K comparable, V any](bound int) Cache[K, V] {
	return Cache[K, V]{cap: max(bound, 1)}
}

// Get returns the value memoized under key, running build when there is
// none. A build runs outside the Cache's lock, under its entry's: a
// concurrent Get of the same key waits for it and shares its value, and
// Gets of other keys are not held up. hit reports that this call did
// not run build, which is not stored: a hit allocates nothing.
//
// A failed build goes to its caller and nothing of it is kept: the
// entry leaves the Cache, and a Get that was waiting on it runs its own
// build — a build closes over its caller's context, so one caller's
// cancellation must not become another's answer. Nor does it push out
// anything: the bound is enforced as a build succeeds, so a refused key
// leaves the Cache as it found it.
func (c *Cache[K, V]) Get(key K, build func() (V, error)) (v V, hit bool, err error) {
	c.mu.Lock()
	e, ok := c.ent[key]
	if ok {
		c.st.Hits++
		c.unlink(e)
		c.front(e)
	} else {
		c.st.Misses++
		e = &entry[K, V]{key: key}
		c.link(e)
	}
	c.mu.Unlock()

	if e.ready.Load() {
		return e.v, true, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ready.Load() {
		return e.v, true, nil
	}
	if v, err = build(); err != nil {
		c.mu.Lock()
		if c.ent[key] == e { // not evicted meanwhile
			c.remove(e)
		}
		c.mu.Unlock()
		return v, false, err
	}
	e.v = v
	e.ready.Store(true)
	c.mu.Lock()
	c.trim()
	c.mu.Unlock()
	return v, false, nil
}

// link makes e its key's entry and the most recently used; under c.mu,
// as are the four below.
func (c *Cache[K, V]) link(e *entry[K, V]) {
	if c.ent == nil {
		c.ent = map[K]*entry[K, V]{}
		c.root.prev, c.root.next = &c.root, &c.root
	}
	if old, ok := c.ent[e.key]; ok {
		c.unlink(old)
	}
	c.ent[e.key] = e
	c.front(e)
}

// trim evicts the least recently used entries past the bound.
func (c *Cache[K, V]) trim() {
	for len(c.ent) > c.cap {
		c.remove(c.root.prev)
		c.st.Evictions++
	}
}

func (c *Cache[K, V]) remove(e *entry[K, V]) {
	delete(c.ent, e.key)
	c.unlink(e)
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) { e.prev.next, e.next.prev = e.next, e.prev }

func (c *Cache[K, V]) front(e *entry[K, V]) {
	e.prev, e.next = &c.root, c.root.next
	e.prev.next, e.next.prev = e, e
}

// Put stores v under key, replacing what the key had; neither a hit nor
// a miss. For hydrating a Cache from a serialized one (see Each).
func (c *Cache[K, V]) Put(key K, v V) {
	e := &entry[K, V]{key: key, v: v}
	e.ready.Store(true)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.link(e)
	c.trim()
}

// Each calls fn for every built entry, most recent first. It walks a
// snapshot taken under the lock, so fn may use the Cache.
func (c *Cache[K, V]) Each(fn func(K, V)) {
	c.mu.Lock()
	built := make([]*entry[K, V], 0, len(c.ent))
	for e := c.root.next; e != nil && e != &c.root; e = e.next {
		if e.ready.Load() {
			built = append(built, e)
		}
	}
	c.mu.Unlock()
	for _, e := range built {
		fn(e.key, e.v)
	}
}

// Stats snapshots the counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.st
	st.Len = len(c.ent)
	return st
}
