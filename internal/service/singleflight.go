package service

import "sync"

// call is one in-flight engine execution. Waiters block on done; val
// and err are written exactly once, before done is closed. once makes
// finish idempotent: the panic-recovery path in execute fails every
// call of the batch, including any it had already finished, and a
// second close of done would itself panic.
type call struct {
	done chan struct{}
	once sync.Once
	val  []byte
	err  error
}

// flightGroup deduplicates concurrent identical work: all requests for
// the same key share one execution. Unlike x/sync/singleflight, the
// leader here only *registers* the call — execution happens in a
// goroutine owned by the Service so a waiter's context cancellation
// never aborts work other waiters still want.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*call
}

// lead returns the call for key, creating it if absent. The second
// result reports whether the caller created it and therefore owns
// running the work and finishing the call. The empty key is never
// registered: it asks for a private call nobody else can join.
func (g *flightGroup) lead(key string) (*call, bool) {
	if key == "" {
		return &call{done: make(chan struct{})}, true
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.calls == nil {
		g.calls = make(map[string]*call)
	}
	if c, ok := g.calls[key]; ok {
		return c, false
	}
	c := &call{done: make(chan struct{})}
	g.calls[key] = c
	return c, true
}

// finish publishes the result, wakes every waiter, and retires the key
// so later requests (a cache miss after eviction, or a failed run) can
// start a fresh flight. Only c's own registration is retired, so
// finishing a private call touches no other request's flight.
// Finishing an already-finished call is a no-op: the first result
// stands.
func (g *flightGroup) finish(key string, c *call, val []byte, err error) {
	c.once.Do(func() {
		c.val, c.err = val, err
		g.mu.Lock()
		if g.calls[key] == c {
			delete(g.calls, key)
		}
		g.mu.Unlock()
		close(c.done)
	})
}
