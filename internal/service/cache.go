package service

import (
	"container/list"
	"sync"

	"schedroute/internal/schedule"
	"schedroute/pkg/schedroute"
)

// solverEntry is one cached problem structure: the resolved machine
// and workload plus the schedule.Solver amortizing every
// τin-independent derivation (LSD baseline, path candidates, task
// starts, validation) across requests.
type solverEntry struct {
	key string
	// once guards the build: the first caller runs it, every other
	// caller (hit or concurrent miss) waits on it before reading.
	once   sync.Once
	built  *schedroute.Built
	solver *schedule.Solver
	err    error
}

// solverCache is an LRU of solverEntry keyed by
// schedroute.Problem.StructureKey. A hit means a request skips spec
// parsing, workload construction, and — through the Solver — the
// τin-independent halves of the pipeline. Hits, misses, evictions at
// capacity (not failed-build retries) and the size are counted in m.
type solverCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List               // front = most recent
	ent map[string]*list.Element // key -> element whose Value is *solverEntry
	m   *Metrics
}

func newSolverCache(capacity int, m *Metrics) *solverCache {
	if capacity < 1 {
		capacity = 1
	}
	return &solverCache{cap: capacity, ll: list.New(), ent: map[string]*list.Element{}, m: m}
}

// getOrCreate returns the entry for key, creating (and possibly
// evicting) under the lock but building outside it, so a slow build
// never serializes unrelated keys. The hit/miss counters record whether
// the caller found an existing entry; the returned hit flag reports the
// same per-call, feeding the request trace's cache_hit attribute. Every
// caller — hit or miss — funnels through the entry's once.Do, so a hit
// on an entry still mid-build blocks until the build finishes instead
// of observing a half-initialized entry (nil built/solver with nil
// err).
func (c *solverCache) getOrCreate(key string, build func() (*schedroute.Built, error)) (*solverEntry, bool) {
	c.mu.Lock()
	var e *solverEntry
	hit := false
	if el, ok := c.ent[key]; ok {
		c.m.add(mCacheHits, 1)
		hit = true
		c.ll.MoveToFront(el)
		e = el.Value.(*solverEntry)
	} else {
		c.m.add(mCacheMisses, 1)
		e = &solverEntry{key: key}
		c.ent[key] = c.ll.PushFront(e)
		for c.ll.Len() > c.cap {
			old := c.ll.Back()
			c.ll.Remove(old)
			delete(c.ent, old.Value.(*solverEntry).key)
			c.m.add(mCacheEvictions, 1)
		}
		c.m.set(mCacheSize, int64(c.ll.Len()))
	}
	c.mu.Unlock()

	e.once.Do(func() {
		b, err := build()
		if err != nil {
			e.err = err
			c.evict(key, e)
			return
		}
		e.built = b
		e.solver = schedule.NewSolver(b.ScheduleProblem())
	})
	return e, hit
}

// evict drops a failed entry so a corrected retry of the same key
// rebuilds instead of replaying the cached error forever.
func (c *solverCache) evict(key string, e *solverEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.ent[key]; ok && el.Value.(*solverEntry) == e {
		c.ll.Remove(el)
		delete(c.ent, key)
		c.m.set(mCacheSize, int64(c.ll.Len()))
	}
}
