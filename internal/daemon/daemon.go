// Package daemon is the anytimed server: the deadline-aware anytime
// serving runtime (internal/serve) wired to HTTP, with warm per-route
// pools, FIFO admission, load shedding, telemetry, request tracing, and —
// for fleet deployments behind cmd/anytimerouter — deadline-budget
// ingestion (serve.BudgetHeader) and a drain lifecycle (/drain flips
// /healthz to 503 so routers stop sending new work while in-flight
// requests finish against still-warm pools).
//
// cmd/anytimed is the thin binary wrapper; the package boundary exists so
// the cluster harness (internal/cluster) can spin real backends on
// httptest servers and test the fleet contract end-to-end in-process.
package daemon

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"anytime/internal/apps/conv2d"
	"anytime/internal/apps/histeq"
	"anytime/internal/apps/kmeans"
	"anytime/internal/core"
	"anytime/internal/metrics"
	"anytime/internal/pix"
	"anytime/internal/reqtrace"
	"anytime/internal/serve"
	"anytime/internal/snapcache"
	"anytime/internal/telemetry"
)

// Server holds the prepared inputs, precise references, and the serving
// runtime — per-route warm pools, the FIFO admission queue, and the load
// controller — so request handling only pays for the automaton run itself.
type Server struct {
	mux *http.ServeMux

	// queue is the FIFO admission queue bounding concurrently running
	// automata (replacing the old unfair channel semaphore): slots execute,
	// up to queueLen more wait in arrival order, the rest are rejected.
	queue *serve.Queue
	// ctrl scales deadlines down as the queue deepens; active only when
	// shed is true (-overload=shed).
	ctrl serve.Controller
	shed bool

	// reg is the process metrics registry; every request's pipeline
	// reports into it through hooks (shared across all automata) and
	// per-buffer observers. slotsInUse mirrors queue occupancy so the
	// concurrency bound is visible at /metrics.
	reg        *telemetry.Registry
	hooks      *core.Hooks
	serveHooks *serve.Hooks
	slotsInUse *telemetry.Gauge

	// recorder is the always-on flight recorder: every app request gets a
	// reqtrace.Trace, and completed traces land here (category-sampled) for
	// /debug/requests. started anchors anytimed_uptime_seconds.
	recorder *reqtrace.Recorder
	started  time.Time

	// draining, when set, turns /healthz into a 503 so a routing tier's
	// health checks stop sending new work here; requests that still arrive
	// are served normally (the anytime contract holds to the last request)
	// but carry X-Anytime-Draining so the caller can tell. Flipped by
	// POST/DELETE /drain.
	draining atomic.Bool

	// cache is the content-addressed snapshot cache (nil when disabled):
	// deadline requests whose input digest hits it seed their automaton
	// from the cached approximation and spend the whole budget refining.
	// cacheEpoch fingerprints the app configuration so entries from a
	// differently configured process can never seed a request. See
	// docs/CACHING.md.
	cache      *snapcache.Cache[*pix.Image]
	cacheEpoch uint64

	blur, equalize, cluster *route
}

// route is one served app: its warm pool, the input it computes over (with
// that input's content digest, the default cache key), and the precise
// reference every delivery is scored against.
type route struct {
	pool   *serve.Pool[*pix.Image]
	input  *pix.Image
	digest string
	ref    *pix.Image
}

// Config carries the operational knobs from main. Zero values take
// the documented defaults; queueLen -1 means "no waiting room" (reject as
// soon as every slot is busy).
type Config struct {
	Pprof       bool
	Slots       int     // concurrent automata (0 = 8)
	QueueLen    int     // bounded waiting room (0 = 32, -1 = none)
	Warm        int     // automata prebuilt per route pool (0 = 1)
	Overload    string  // "shed" or "reject" ("" = shed)
	ShedMin     float64 // floor of the shed factor (0 = 0.25)
	FlightSize  int     // completed traces retained for /debug/requests (0 = 256)
	TraceSample int     // retain 1 in N unremarkable OK traces (0 = 16)

	// CacheBytes bounds the snapshot cache payload (0 = 64 MiB, -1 =
	// caching disabled); CacheTTL bounds entry age (0 = 5m).
	CacheBytes int64
	CacheTTL   time.Duration
}

func (c *Config) normalize() error {
	if c.Slots == 0 {
		c.Slots = 8
	}
	switch c.QueueLen {
	case 0:
		c.QueueLen = 32
	case -1:
		c.QueueLen = 0
	}
	if c.Warm == 0 {
		c.Warm = 1
	}
	if c.Overload == "" {
		c.Overload = "shed"
	}
	if c.Overload != "shed" && c.Overload != "reject" {
		return fmt.Errorf("overload policy %q (want shed or reject)", c.Overload)
	}
	if c.ShedMin == 0 {
		c.ShedMin = 0.25
	}
	if c.FlightSize == 0 {
		c.FlightSize = 256
	}
	if c.TraceSample == 0 {
		c.TraceSample = 16
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.CacheTTL == 0 {
		c.CacheTTL = 5 * time.Minute
	}
	return nil
}

func New(size, workers int, cfg Config) (*Server, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	gray, err := pix.SyntheticGray(size, size, 1)
	if err != nil {
		return nil, err
	}
	rgb, err := pix.SyntheticRGB(size, size, 1)
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	serveHooks := telemetry.ServeHooks(reg)
	queue, err := serve.NewQueue(cfg.Slots, cfg.QueueLen, serveHooks)
	if err != nil {
		return nil, err
	}
	recorder, err := reqtrace.NewRecorder(reqtrace.RecorderConfig{
		Size:        cfg.FlightSize,
		SampleEvery: cfg.TraceSample,
		Hooks:       telemetry.ReqtraceHooks(reg),
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		mux:   http.NewServeMux(),
		queue: queue,
		// The ramp starts at a quarter of the waiting room and bottoms out
		// when the room is full; with no waiting room the depth is always
		// zero and the controller never fires.
		ctrl: serve.Controller{
			ShedStart: max(1, cfg.QueueLen/4),
			ShedFull:  max(2, cfg.QueueLen),
			MinFactor: cfg.ShedMin,
			H:         serveHooks,
		},
		shed:       cfg.Overload == "shed",
		reg:        reg,
		hooks:      telemetry.PipelineHooks(reg),
		serveHooks: serveHooks,
		slotsInUse: reg.Gauge(metricSlotsInUse, nil),
		recorder:   recorder,
		started:    time.Now(),
	}
	if err := s.ctrl.Validate(); err != nil {
		return nil, err
	}
	if cfg.CacheBytes > 0 {
		s.cache, err = snapcache.New(snapcache.Config[*pix.Image]{
			MaxBytes: cfg.CacheBytes,
			TTL:      cfg.CacheTTL,
			// Pools publish SnapshotClone images (immutable forever), so the
			// cache can retain them without a defensive copy.
			SizeOf: func(im *pix.Image) int { return len(im.Pix) * 4 },
			Hooks:  telemetry.SnapcacheHooks(reg),
		})
		if err != nil {
			return nil, err
		}
	}
	s.cacheEpoch = cacheEpoch(size)
	if s.blur, err = s.newRoute("blur", cfg, gray, func() (*pix.Image, error) {
		return conv2d.Precise(gray, conv2d.Config{Workers: workers})
	}, func() (*core.Automaton, *core.Buffer[*pix.Image], error) {
		run, err := conv2d.New(gray, conv2d.Config{Workers: workers})
		if err != nil {
			return nil, nil, err
		}
		return run.Automaton, run.Out, nil
	}); err != nil {
		return nil, err
	}
	if s.equalize, err = s.newRoute("equalize", cfg, gray, func() (*pix.Image, error) {
		return histeq.Precise(gray, histeq.Config{Workers: workers})
	}, func() (*core.Automaton, *core.Buffer[*pix.Image], error) {
		run, err := histeq.New(gray, histeq.Config{Workers: workers})
		if err != nil {
			return nil, nil, err
		}
		return run.Automaton, run.Out, nil
	}); err != nil {
		return nil, err
	}
	if s.cluster, err = s.newRoute("cluster", cfg, rgb, func() (*pix.Image, error) {
		return kmeans.Precise(rgb, kmeans.Config{Workers: workers})
	}, func() (*core.Automaton, *core.Buffer[*pix.Image], error) {
		run, err := kmeans.New(rgb, kmeans.Config{Workers: workers})
		if err != nil {
			return nil, nil, err
		}
		return run.Automaton, run.Out, nil
	}); err != nil {
		return nil, err
	}
	for _, rt := range []*route{s.blur, s.equalize, s.cluster} {
		s.handle("GET /"+rt.pool.Name(), s.handleApp(rt, false))
	}
	s.handle("GET /blur/stream", s.handleApp(s.blur, true))
	s.handle("GET /cluster/stream", s.handleApp(s.cluster, true))
	s.registerOps(cfg.Pprof)
	s.registerDebugRequests()
	s.handle("GET /", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, "anytimed — hold a request for more precision")
		fmt.Fprintln(w, "  GET /blur?deadline=50ms  blur, best output published within 50ms")
		fmt.Fprintln(w, "  GET /blur?accept=25      blur, stopped at 25 dB (add deadline= to bound it too)")
		fmt.Fprintln(w, "  GET /equalize?deadline=10ms  histogram equalization")
		fmt.Fprintln(w, "  GET /cluster?deadline=100ms  k-means clustering")
		fmt.Fprintln(w, "  GET /blur?deadline=50ms&input=key   cache key override (ring-affine repeats warm-start)")
		fmt.Fprintln(w, "  GET /blur/stream         live SSE: watch quality rise per version (same knobs)")
		fmt.Fprintln(w, "  GET /cluster/stream      live SSE for k-means")
		fmt.Fprintln(w, "  GET /metrics             Prometheus exposition (stages, buffers, pools, HTTP)")
		fmt.Fprintln(w, "  GET /debug/vars          expvar JSON view of the same registry")
		fmt.Fprintln(w, "  GET /debug/requests      flight recorder: recent request traces (?id= for detail)")
		fmt.Fprintln(w, "  GET /healthz             liveness probe")
		fmt.Fprintln(w, "no knob: precise output")
		fmt.Fprintln(w, "see docs/OPERATIONS.md for pool/queue sizing and the full metrics reference")
	})
	return s, nil
}

// newRoute computes a route's precise reference and builds its warm pool.
// Telemetry attaches once per pooled instance, at construction: the
// lifecycle hooks and buffer observers survive Reset, so attaching per
// request would pile observers onto reused buffers. Buffer names recur
// across instances (every /blur automaton publishes to the same-named
// buffer), so the series accumulate per route.
//
// Request tracing attaches the same way, through a per-instance
// reqtrace.Slot: the publish observer and reset hook registered here are
// permanent, and report into whichever request's trace is bound to the slot
// at the moment they fire (no trace bound = one atomic load, nothing
// recorded).
func (s *Server) newRoute(name string, cfg Config, input *pix.Image, precise func() (*pix.Image, error), build func() (*core.Automaton, *core.Buffer[*pix.Image], error)) (*route, error) {
	ref, err := precise()
	if err != nil {
		return nil, err
	}
	p, err := serve.NewPool(name, cfg.Slots, func() (serve.Entry[*pix.Image], error) {
		a, out, err := build()
		if err != nil {
			return serve.Entry[*pix.Image]{}, err
		}
		a.SetHooks(s.hooks)
		telemetry.ObserveBuffer(s.reg, out)
		slot := &reqtrace.Slot{}
		out.OnPublish(func(sn core.Snapshot[*pix.Image]) {
			slot.Publish(out.Name(), uint64(sn.Version), len(sn.Value.Pix), sn.Final)
		})
		a.OnReset(slot.OnReset)
		return serve.Entry[*pix.Image]{Automaton: a, Out: out, Slot: slot}, nil
	}, s.serveHooks)
	if err != nil {
		return nil, err
	}
	if err := p.Warm(cfg.Warm); err != nil {
		return nil, err
	}
	return &route{pool: p, input: input, digest: snapcache.DigestImage(input), ref: ref}, nil
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// handleApp builds the anytime-over-HTTP flow around a route's warm pool:
// admission, checkout, warm start, the serving contract (serve.Run),
// delivery, check-in. Every request gets a reqtrace.Trace (its ID is echoed
// in X-Anytime-Trace); completed traces go to the flight recorder, which
// always keeps the interesting ones — see /debug/requests.
//
// The delivered snapshot is the PNM response body, or with stream set the
// last of the Server-Sent Events sent for every version the run observes
// (see stream.go).
func (s *Server) handleApp(rt *route, stream bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, tr := reqtrace.New(r.Context(), r.URL.Path[1:])
		r = r.WithContext(ctx)
		sw, wrapped := w.(*statusWriter)
		if !wrapped {
			sw = &statusWriter{ResponseWriter: w}
			w = sw
		}
		w.Header().Set("X-Anytime-Trace", tr.ID())
		// Sealing must come after check-in (the deferred Put below runs
		// first — defers are LIFO) so the reset and pool.put spans land
		// inside the trace; only a sealed trace is admissible to the
		// recorder.
		defer func() {
			tr.Finish(sw.status())
			s.recorder.Record(tr)
		}()
		fail := func(code int, err error) {
			tr.Error(err.Error())
			http.Error(w, err.Error(), code)
		}

		k, err := parseKnobs(r)
		if err != nil {
			fail(http.StatusBadRequest, err)
			return
		}
		release, ok := s.admit(r)
		if !ok {
			http.Error(w, "server at capacity", http.StatusServiceUnavailable)
			return
		}
		defer release()
		entry, err := rt.pool.Get(ctx)
		if err != nil {
			fail(http.StatusInternalServerError, err)
			return
		}
		entry.Slot.Bind(tr)
		// Check-in is deferred until after the response body is written:
		// the next checkout may start republishing, and a snapshot's
		// backing is only guaranteed immutable until the tile ring cycles
		// around (the conformance immutability window). A failed check-in
		// drops the entry; the pool rebuilds on demand. Unbind follows Put
		// so the check-in's reset/pool.put events reach the trace.
		defer func() {
			_ = rt.pool.Put(entry)
			entry.Slot.Unbind()
		}()

		start := time.Now()
		key := s.cacheKey(rt, r)
		effective := k.deadline
		if k.deadline > 0 {
			effective = s.deadlineContract(ctx, w.Header(), entry, rt, key, k, r.URL.Query().Get("prior"))
		}
		if s.draining.Load() {
			w.Header().Set("X-Anytime-Draining", "true")
		}
		var sse *sseStream
		if stream {
			sse = newSSE(w, start)
		}
		res, err := serve.Run(ctx, entry, effective, s.serveHooks, predicate(rt.ref, k.accept, sse))
		if err != nil {
			httpRunError(w, err)
			return
		}
		snap := res.Snapshot
		db, err := metrics.SNR(rt.ref.Pix, snap.Value.Pix)
		if err != nil {
			fail(http.StatusInternalServerError, err)
			return
		}
		snrDB := db
		if math.IsInf(snrDB, 0) || math.IsNaN(snrDB) {
			snrDB = 0 // precise deliveries have no finite SNR; record "unmeasured"
		}
		tr.Deliver(uint64(snap.Version), snap.Final, res.Interrupted, snrDB, time.Since(start))
		s.recordDelivered(db, snap.Final)
		if sse != nil {
			sse.send(snap, db)
		} else {
			if k.deadline > 0 {
				// Whether the deadline — not acceptance or completion —
				// ended the run.
				w.Header().Set("X-Anytime-Deadline-Fired", fmt.Sprint(res.Interrupted && !(k.accept > 0 && db >= k.accept)))
			}
			if !writeImage(w, snap, db, start) {
				return
			}
		}
		// Admission happens after the response bytes are written — off the
		// request's critical path; the cache refuses versions not newer than
		// its own (including this run's seed). Accept-only runs, which never
		// seed, do not admit either.
		if k.accept == 0 || k.deadline > 0 {
			serve.Admit(s.cache, key, res, snrDB)
		}
	}
}

// cacheKey is a request's snapshot cache key: the route input's content
// digest — overridable with ?input=, the same string the router's ring
// keys on (cluster.RingKey), so repeats of a key land on the shard whose
// cache holds the warm entry — plus the config epoch, so entries computed
// under another configuration can never seed.
func (s *Server) cacheKey(rt *route, r *http.Request) snapcache.Key {
	key := snapcache.Key{App: rt.pool.Name(), Digest: rt.digest, Epoch: s.cacheEpoch}
	if in := r.URL.Query().Get("input"); in != "" {
		key.Digest = in
	}
	return key
}

// deadlineContract prepares a deadline request's run and returns its
// effective deadline, setting the contract's response headers. A warm
// start comes first, so the whole budget is spent on refinement. Only
// deadline requests seed — a precise request runs to the end regardless,
// and an accept-only request reasons about its SNR trajectory from a cold
// start. A router-propagated budget then caps the deadline before local
// shedding: the fleet already spent part of this request's time upstream
// (queue wait, network), and the backend must not run longer than the
// budget it was handed.
func (s *Server) deadlineContract(ctx context.Context, h http.Header, entry serve.Entry[*pix.Image], rt *route, key snapcache.Key, k knobs, prior string) time.Duration {
	if state, v := s.seed(ctx, entry, rt, key, prior); state != "" {
		h.Set("X-Anytime-Cache", state)
		if v > 0 {
			h.Set("X-Anytime-Seed-Version", fmt.Sprint(v))
		}
	}
	base, budgeted := serve.ApplyBudget(k.deadline, k.budget, k.budgetSet)
	// The budget is echoed only when it actually capped the contract: a
	// budget looser than the deadline never participated.
	if budgeted {
		reqtrace.FromContext(ctx).Budget(base, k.budget <= 0)
		h.Set(serve.BudgetHeader, serve.FormatBudget(k.budget))
	}
	effective := base
	if s.shed {
		effective = s.ctrl.Scale(ctx, base, s.queue.Depth())
	}
	h.Set("X-Anytime-Deadline", k.deadline.String())
	h.Set("X-Anytime-Effective-Deadline", effective.String())
	return effective
}

// predicate returns serve.Run's accept argument: each version the run
// observes is scored against ref, sent to the stream (when streaming), and
// admitted once it reaches threshold (when set). It is nil — Run then never
// wakes per version — for image requests without an accept threshold.
func predicate(ref *pix.Image, threshold float64, sse *sseStream) func(core.Snapshot[*pix.Image]) bool {
	if threshold <= 0 && sse == nil {
		return nil
	}
	return func(sn core.Snapshot[*pix.Image]) bool {
		db, err := metrics.SNR(ref.Pix, sn.Value.Pix)
		if err != nil {
			return false
		}
		sse.send(sn, db)
		return threshold > 0 && db >= threshold
	}
}

// writeImage encodes the delivered snapshot as the PNM response body with
// its delivery headers, reporting whether the body was written.
func writeImage(w http.ResponseWriter, snap core.Snapshot[*pix.Image], db float64, start time.Time) bool {
	var buf bytes.Buffer
	if err := pix.EncodePNM(&buf, snap.Value); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return false
	}
	h := w.Header()
	h.Set("Content-Type", "image/x-portable-graymap")
	if snap.Value.C == 3 {
		h.Set("Content-Type", "image/x-portable-pixmap")
	}
	h.Set("X-Anytime-Version", fmt.Sprint(snap.Version))
	h.Set("X-Anytime-Final", fmt.Sprint(snap.Final))
	h.Set("X-Anytime-SNR-dB", metrics.FormatDB(db))
	h.Set("X-Anytime-Elapsed", time.Since(start).String())
	_, err := w.Write(buf.Bytes())
	return err == nil
}

// httpRunError maps a serve.Run failure to a response: a gone
// client gets the (unseen) 503, anything else is a pipeline failure.
func httpRunError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.Canceled) {
		http.Error(w, "client went away", http.StatusServiceUnavailable)
		return
	}
	http.Error(w, err.Error(), http.StatusInternalServerError)
}

// recordDelivered records the delivered-accuracy metric: approximate
// deliveries observe their SNR (in millidecibels — the registry is
// integer-valued), precise ones only count (their SNR is +Inf).
func (s *Server) recordDelivered(db float64, final bool) {
	if final {
		return
	}
	if db < 0 {
		db = 0
	}
	s.reg.Histogram(metricDeliveredSNR, nil).Observe(uint64(db * 1000))
}

// admit takes an execution slot through the FIFO queue, giving up when the
// client goes away or the waiting room is full. The slotsInUse gauge
// mirrors queue occupancy so the bound is observable at /metrics.
func (s *Server) admit(r *http.Request) (release func(), ok bool) {
	if err := s.queue.Acquire(r.Context()); err != nil {
		s.reg.Counter(metricSlotsRejected, nil).Inc()
		return nil, false
	}
	s.slotsInUse.Inc()
	return func() {
		s.slotsInUse.Dec()
		s.queue.Release()
	}, true
}
