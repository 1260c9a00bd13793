// Package ctxflow is the intentional-violation fixture for the
// goroutine-lifecycle and context-propagation analyzer.
package ctxflow

import "context"

type worker struct {
	ctx  context.Context
	done chan struct{}
}

// spinner spawns a goroutine whose every path loops forever: no exit.
func spinner(events chan int) {
	go func() { // want `goroutine has no exit path`
		for {
			select {
			case <-events:
			}
		}
	}()
}

// pump never returns either, and the finding lands on the go statement
// that spawns it, not the declaration.
func pump(events chan int) {
	for {
		<-events
	}
}

func startPump(events chan int) {
	go pump(events) // want `goroutine has no exit path`
}

// watcher is the shape the analyzer demands: the ctx.Done() case
// returns, so the CFG reaches its exit.
func watcher(ctx context.Context, events chan int) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-events:
			}
		}
	}()
}

// drainer exits when the channel is closed by the producer.
func drainer(events chan int) {
	go func() {
		for range events {
		}
	}()
}

// bounded loops a fixed number of times.
func bounded(events chan int) {
	go func() {
		for i := 0; i < 8; i++ {
			<-events
		}
	}()
}

// bind stores the received context into a struct, detaching
// cancellation from the call tree.
func (w *worker) bind(ctx context.Context) {
	w.ctx = ctx // want `context stored into field ctx`
}

func newWorker(ctx context.Context) *worker {
	return &worker{ctx: ctx, done: make(chan struct{})} // want `context stored into field ctx via literal`
}

// lookup drops the caller's deadline by conjuring a fresh root where
// it should pass ctx on.
func lookup(ctx context.Context, keys chan string) {
	query(context.Background(), keys) // want `context.Background\(\) discards the received ctx`
}

func query(ctx context.Context, keys chan string) {
	select {
	case <-ctx.Done():
	case <-keys:
	}
}

// detach documents a deliberate detachment with a reasoned allow.
func detach(ctx context.Context, keys chan string) {
	//detlint:allow ctxflow cleanup must finish even if the caller is cancelled
	query(context.Background(), keys)
	_ = ctx
}
