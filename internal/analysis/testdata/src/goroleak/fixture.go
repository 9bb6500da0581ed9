// This fixture is named cluster to land in the goroleak analyzer's
// request-path scope, which matches fixtures by package name. Each spawn
// site either carries one of the provable termination edges (no
// diagnostic) or lacks all of them (want).
package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// fireAndForget has no edge at all: the canonical leak.
func fireAndForget() {
	go func() { // want `fire-and-forget goroutine: no provable termination edge`
		for {
			time.Sleep(time.Second)
		}
	}()
}

// dynamicValue spawns a func value the analyzer cannot resolve.
func dynamicValue(f func()) {
	go f() // want `goroutine spawns a dynamic function value`
}

// outOfPackage spawns an imported function with no exported fact.
func outOfPackage() {
	go fmt.Println("boot") // want `goroutine runs Println, declared outside this package`
}

// ctxDone terminates through the context's Done channel.
func ctxDone(ctx context.Context) {
	go func() { // ok: ctx.Done select
		for {
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Second):
			}
		}
	}()
}

// joined terminates through a WaitGroup the package waits on.
func joined(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() { // ok: joined via wg
			defer wg.Done()
		}()
	}
	wg.Wait()
}

// stopLoop terminates through a chan struct{} its owner closes.
type stopLoop struct {
	stop chan struct{}
}

func (l *stopLoop) start() {
	go func() { // ok: stop-channel select
		for {
			select {
			case <-l.stop:
				return
			case <-time.After(time.Second):
			}
		}
	}()
}

// handshake terminates because its only blocking send targets a buffered
// channel made in the spawning function: the send cannot block.
func handshake() int {
	res := make(chan int, 1)
	go func() { // ok: bounded handshake
		res <- 42
	}()
	return <-res
}

// unbufferedHandshake is the same shape over an unbuffered channel: if the
// receiver gives up, the sender blocks forever.
func unbufferedHandshake() int {
	res := make(chan int)
	go func() { // want `fire-and-forget goroutine: no provable termination edge`
		res <- 42
	}()
	return <-res
}

// timerOnly loops on a ticker with no stop edge: it wakes forever.
func timerOnly() {
	t := time.NewTicker(time.Second)
	go func() { // want `fire-and-forget goroutine: no provable termination edge`
		for range t.C {
		}
	}()
}

// ctxLoop terminates because every loop iteration passes ctx to a callee
// that can fail when the context ends, and the body returns on error.
func ctxLoop(ctx context.Context, wait func(context.Context) error) {
	go func() { // ok: ctx-bounded loop
		for {
			if err := wait(ctx); err != nil {
				return
			}
		}
	}()
}
