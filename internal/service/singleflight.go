package service

import (
	"context"
	"sync"
	"time"
)

// flightCall is one in-flight (or just-completed) coalesced execution.
type flightCall struct {
	done    chan struct{} // closed after val/err are set
	val     any
	err     error
	joiners int64 // callers that joined after the leader (metrics/tests)
	waiting int   // callers still waiting; the run is canceled at zero
	cancel  context.CancelFunc
}

// flightGroup coalesces duplicate concurrent work: Do with a key that
// is already in flight waits for the running call and shares its
// result instead of executing fn again. The execution runs on its own
// context, detached from any single caller's cancellation: the
// leader's client disconnecting or hitting its deadline does not kill
// the solve for the joiners still waiting on it. Only when every
// coalesced caller has abandoned the call is the shared context
// canceled. Unlike a cache, a completed call is forgotten immediately
// — only concurrency is deduplicated, so repeated sequential requests
// still observe fresh execution (and the solver cache underneath
// provides the durable reuse).
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: map[string]*flightCall{}}
}

// Do executes fn under key, coalescing with an identical in-flight
// call. fn receives a context carrying ctx's values but not its
// cancellation or deadline; it has a deadline of its own, timeout after
// the call starts, and is canceled once every coalesced caller has gone
// away. Each caller waits no longer than its own ctx allows — an
// expiring caller gets its ctx.Err() while the shared run continues for
// the others. shared reports whether this caller joined an existing
// call rather than starting fn itself.
func (g *flightGroup) Do(ctx context.Context, key string, timeout time.Duration, fn func(context.Context) (any, error)) (v any, err error, shared bool) {
	g.mu.Lock()
	if c, ok := g.m[key]; ok {
		c.joiners++
		c.waiting++
		g.mu.Unlock()
		return g.wait(ctx, key, c, true)
	}
	runCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), timeout)
	c := &flightCall{done: make(chan struct{}), waiting: 1, cancel: cancel}
	g.m[key] = c
	g.mu.Unlock()

	go func() {
		v, err := fn(runCtx)
		g.mu.Lock()
		c.val, c.err = v, err
		if g.m[key] == c { // an abandoned run is already forgotten
			delete(g.m, key)
		}
		g.mu.Unlock()
		cancel()
		close(c.done)
	}()
	return g.wait(ctx, key, c, false)
}

// wait blocks until the call completes or the caller's own ctx ends.
// The last caller to abandon the run forgets it, then cancels it — in
// that order, so nobody joins a run failing with a cancel not theirs.
func (g *flightGroup) wait(ctx context.Context, key string, c *flightCall, shared bool) (any, error, bool) {
	select {
	case <-c.done:
		return c.val, c.err, shared
	case <-ctx.Done():
		g.mu.Lock()
		c.waiting--
		last := c.waiting == 0
		if last && g.m[key] == c {
			delete(g.m, key)
		}
		g.mu.Unlock()
		if last {
			c.cancel()
		}
		return nil, ctx.Err(), shared
	}
}

// waiters reports how many callers are currently waiting on the
// in-flight call for key (0 when the key is idle). Test hooks use it
// to release a blocked leader only after every duplicate has joined.
func (g *flightGroup) waiters(key string) int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.m[key]; ok {
		return c.joiners
	}
	return 0
}
