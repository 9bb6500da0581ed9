// Command anytimed serves anytime computations over HTTP — the paper's
// introduction scenario ("imagine typing a search engine query and instead
// of pressing the enter key, you hold it based on the desired amount of
// precision") as a service: the longer a client is willing to hold the
// request, the more precise the response.
//
// Usage:
//
//	anytimed [-addr :8080] [-size 256] [-workers 2] [-slots 8] [-queue 32]
//	         [-warm 1] [-overload shed] [-shed-min 0.25] [-pprof]
//	         [-flight-recorder-size 256] [-trace-sample 16]
//	         [-cache-size 64] [-cache-ttl 5m]
//
// Endpoints (all return binary PGM/PPM with X-Anytime-* headers):
//
//	GET /blur?deadline=50ms    blur, best published output within 50ms
//	                           (never empty-handed; may shed under load)
//	GET /blur?accept=25        …or until the output reaches 25 dB
//	GET /blur?deadline=50ms&accept=25  whichever comes first
//	GET /equalize?deadline=10ms  histogram equalization, same knobs
//	GET /cluster?deadline=100ms  k-means clustering, same knobs
//
// Omitting every knob returns the bit-exact precise output. The retired
// ?hold= knob is answered with 400 naming deadline. /blur/stream and
// /cluster/stream take the same knobs and send one Server-Sent Event per
// version the run observes, ending with the delivered snapshot.
//
// Deadline requests warm-start from the snapshot cache when a prior
// request already computed the same content (same route, input, and
// config): the automaton is seeded with the cached approximation and
// spends the whole deadline refining past it. Responses carry
// X-Anytime-Cache (hit, miss, or delta) and X-Anytime-Seed-Version.
// ?input=KEY overrides the content key (for streams of distinct frames);
// ?prior=KEY names a sibling key to delta-start from when the exact key
// misses. -cache-size 0 disables the cache. See docs/CACHING.md.
//
// Running behind cmd/anytimerouter, a deadline request may arrive with an
// X-Anytime-Budget header: the remaining deadline budget after the router's
// queue wait and the network hop. The budget caps the effective deadline
// (it is fed into the shed controller like any deadline), so a backend
// never runs longer than the budget it was handed.
//
// Operational endpoints:
//
//	GET /metrics               Prometheus text exposition: per-stage
//	                           checkpoint latency, per-buffer publish
//	                           counts and version watermarks, pool/queue/
//	                           delivery series, HTTP request counts/latency
//	GET /debug/vars            the same registry as expvar JSON
//	GET /debug/requests        flight recorder: recent request traces with
//	                           full span timelines (?id=<X-Anytime-Trace>
//	                           for one trace; .json for machines)
//	GET /healthz               liveness probe (503 while draining)
//	POST /drain                start draining: healthz goes 503 so routers
//	                           stop sending new work; in-flight completes
//	DELETE /drain              stop draining, rejoin the fleet
//	GET /debug/pprof/          runtime profiler (only with -pprof)
//
// Every app response carries an X-Anytime-Trace header naming its request
// trace. Errors, rejections, deadline misses, shed requests, and the
// slowest requests are always retained by the flight recorder; unremarkable
// successes are sampled one in -trace-sample.
//
// docs/OPERATIONS.md is the operator's handbook: every flag and knob, pool
// and queue sizing, the shed-versus-reject tradeoff, fleet topology, and
// the full metrics reference. The server itself lives in internal/daemon so
// the cluster harness can run real backends in-process.
package main

import (
	"flag"
	"log"
	"net/http"
	"time"

	"anytime/internal/daemon"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	size := flag.Int("size", 256, "synthetic image side length")
	workers := flag.Int("workers", 2, "goroutines per precise-baseline pass; each diffusive stage runs on one goroutine")
	slots := flag.Int("slots", 8, "automata running concurrently (pool capacity per route)")
	queueLen := flag.Int("queue", 32, "requests waiting for a slot before rejection (-1 = none)")
	warm := flag.Int("warm", 1, "automata prebuilt per route pool at startup")
	overload := flag.String("overload", "shed", "overload policy once requests queue: shed (scale deadlines down) or reject (queue bound only)")
	shedMin := flag.Float64("shed-min", 0.25, "floor of the shed factor (fraction of the requested deadline)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	flightSize := flag.Int("flight-recorder-size", 256, "completed request traces retained for /debug/requests")
	traceSample := flag.Int("trace-sample", 16, "retain 1 in N unremarkable OK request traces (errors, rejections, deadline misses, sheds and the slowest are always retained)")
	cacheSize := flag.Int("cache-size", 64, "snapshot cache budget in MiB; deadline requests warm-start from cached approximations (0 disables)")
	cacheTTL := flag.Duration("cache-ttl", 5*time.Minute, "snapshot cache entry time-to-live")
	flag.Parse()

	cacheBytes := int64(*cacheSize) << 20
	if *cacheSize <= 0 {
		cacheBytes = -1 // disabled; Config treats 0 as "use the default"
	}

	srv, err := daemon.New(*size, *workers, daemon.Config{
		Pprof:       *pprofOn,
		Slots:       *slots,
		QueueLen:    *queueLen,
		Warm:        *warm,
		Overload:    *overload,
		ShedMin:     *shedMin,
		FlightSize:  *flightSize,
		TraceSample: *traceSample,
		CacheBytes:  cacheBytes,
		CacheTTL:    *cacheTTL,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("anytimed listening on %s (image %dx%d, %d slots, %s overload policy)",
		*addr, *size, *size, *slots, *overload)
	log.Fatal(http.ListenAndServe(*addr, srv))
}
