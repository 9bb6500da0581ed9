package main

import (
	"fmt"
	"math/rand/v2"
	"time"
)

// request is one scheduled client request of a fleet workload.
type request struct {
	ID    int
	Due   time.Duration // offset from the start of the window
	Route string
	Key   string // the ?input= cache and ring key
}

// schedule draws the open-loop arrival schedule for one window: Poisson
// arrivals at rate per second, each request on one of routes. Keys are
// assigned so that every key recurs `recur` times, `spacing` requests
// apart: the requests fall into blocks of spacing*recur, and request j of a
// block carries the block's key j mod spacing. At most `spacing` keys are
// live at once, so the working set stays the same however long the window
// is. A key always names the same route, so its repeats meet its own cache
// entry. recur 1 gives every request a distinct key, whatever spacing. The same seed gives
// the same schedule.
func schedule(seed uint64, rate float64, window time.Duration, routes []string, recur, spacing int) []request {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	var reqs []request
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= window {
			break
		}
		reqs = append(reqs, request{ID: len(reqs), Due: due})
	}
	var keyRoute []string
	for i := range reqs {
		block, j := i/(spacing*recur), i%(spacing*recur)
		k := block*spacing + j%spacing
		for len(keyRoute) <= k {
			keyRoute = append(keyRoute, routes[rng.IntN(len(routes))])
		}
		reqs[i].Key = fmt.Sprintf("s%d-k%d", seed, k)
		reqs[i].Route = keyRoute[k]
	}
	return reqs
}

// distinctKeys counts the keys a schedule uses.
func distinctKeys(reqs []request) int {
	seen := make(map[string]bool, len(reqs))
	for _, r := range reqs {
		seen[r.Key] = true
	}
	return len(seen)
}
