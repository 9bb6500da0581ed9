package main

import (
	"sync"
	"time"
)

// timing is one request's clock readings, as offsets from the window start.
type timing struct {
	Due  time.Duration // when the schedule says the request is sent
	Sent time.Duration // when a connection actually took it
	Done time.Duration // when the last byte of the answer arrived
}

// Latency is measured from the due time, so a request that waited for a
// free connection behind a slow one pays for that wait.
func (t timing) Latency() time.Duration { return t.Done - t.Due }

// Lag is how late the generator handed the request to a connection.
func (t timing) Lag() time.Duration { return t.Sent - t.Due }

// openLoop sends reqs on their schedule over at most conns concurrent
// connections and returns their timings in request order. do performs one
// request on connection w and must return only once the answer is read.
// When every connection is busy the next due request waits for one, and
// its latency, counted from the due time, includes the wait.
func openLoop(reqs []request, conns int, do func(w int, r request)) []timing {
	tim := make([]timing, len(reqs))
	work := make(chan int)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				tim[i].Sent = time.Since(start)
				do(w, reqs[i])
				tim[i].Done = time.Since(start)
			}
		}()
	}
	for i, r := range reqs {
		tim[i].Due = r.Due
		if d := r.Due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		work <- i
	}
	close(work)
	wg.Wait()
	return tim
}
