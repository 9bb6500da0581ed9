package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"time"

	"anytime/internal/apps/conv2d"
	"anytime/internal/apps/histeq"
	"anytime/internal/core"
	"anytime/internal/metrics"
	"anytime/internal/pix"
	"anytime/internal/reqtrace"
	"anytime/internal/serve"
	"anytime/internal/snapcache"
	"anytime/internal/telemetry"
)

// pipeline is a traced copy of the daemon's deadline request path: the
// same public calls into serve, snapcache, metrics and pix that
// daemon.Server's app handler makes, in the same order and with the
// daemon's default configuration, each timed as a span. It runs without
// HTTP or a router, so no deadline budget arrives and the deadline stands.
type pipeline struct {
	queue      *serve.Queue
	ctrl       serve.Controller
	reg        *telemetry.Registry
	serveHooks *serve.Hooks
	recorder   *reqtrace.Recorder
	cache      *snapcache.Cache[*pix.Image]
	pools      map[string]*serve.Pool[*pix.Image]
	refs       map[string]*pix.Image
	spans      *spanLog
}

// Daemon defaults (daemon.Config zero values).
const (
	daemonSlots    = 8
	daemonQueueLen = 32
	daemonShedMin  = 0.25
	daemonCacheMax = 64 << 20
	daemonCacheTTL = 5 * time.Minute
	// pipelineEpoch stands in for the daemon's configuration fingerprint;
	// one process owns this cache.
	pipelineEpoch = 1
)

func newPipeline(size, workers int, refs map[string]*pix.Image, spans *spanLog) (*pipeline, error) {
	gray, err := pix.SyntheticGray(size, size, 1)
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	serveHooks := telemetry.ServeHooks(reg)
	queue, err := serve.NewQueue(daemonSlots, daemonQueueLen, serveHooks)
	if err != nil {
		return nil, err
	}
	recorder, err := reqtrace.NewRecorder(reqtrace.RecorderConfig{Size: 256, SampleEvery: 16, Hooks: telemetry.ReqtraceHooks(reg)})
	if err != nil {
		return nil, err
	}
	cache, err := snapcache.New(snapcache.Config[*pix.Image]{
		MaxBytes: daemonCacheMax,
		TTL:      daemonCacheTTL,
		SizeOf:   func(im *pix.Image) int { return len(im.Pix) * 4 },
		Hooks:    telemetry.SnapcacheHooks(reg),
	})
	if err != nil {
		return nil, err
	}
	p := &pipeline{
		queue: queue,
		ctrl: serve.Controller{
			ShedStart: max(1, daemonQueueLen/4),
			ShedFull:  max(2, daemonQueueLen),
			MinFactor: daemonShedMin,
			H:         serveHooks,
		},
		reg:        reg,
		serveHooks: serveHooks,
		recorder:   recorder,
		cache:      cache,
		pools:      make(map[string]*serve.Pool[*pix.Image]),
		refs:       refs,
		spans:      spans,
	}
	hooks := telemetry.PipelineHooks(reg)
	builders := map[string]func() (*core.Automaton, *core.Buffer[*pix.Image], error){
		"/blur": func() (*core.Automaton, *core.Buffer[*pix.Image], error) {
			r, err := conv2d.New(gray, conv2d.Config{Workers: workers})
			if err != nil {
				return nil, nil, err
			}
			return r.Automaton, r.Out, nil
		},
		"/equalize": func() (*core.Automaton, *core.Buffer[*pix.Image], error) {
			r, err := histeq.New(gray, histeq.Config{Workers: workers})
			if err != nil {
				return nil, nil, err
			}
			return r.Automaton, r.Out, nil
		},
	}
	for route, build := range builders {
		pool, err := serve.NewPool(route[1:], daemonSlots, func() (serve.Entry[*pix.Image], error) {
			a, out, err := build()
			if err != nil {
				return serve.Entry[*pix.Image]{}, err
			}
			a.SetHooks(hooks)
			telemetry.ObserveBuffer(reg, out)
			slot := &reqtrace.Slot{}
			out.OnPublish(func(sn core.Snapshot[*pix.Image]) {
				slot.Publish(out.Name(), uint64(sn.Version), len(sn.Value.Pix), sn.Final)
			})
			a.OnReset(slot.OnReset)
			return serve.Entry[*pix.Image]{Automaton: a, Out: out, Slot: slot}, nil
		}, serveHooks)
		if err != nil {
			return nil, err
		}
		if err := pool.Warm(1); err != nil {
			return nil, err
		}
		p.pools[route] = pool
	}
	return p, nil
}

// pipelineReply is a pipeline request's outcome, with the figures the
// serve and snapcache layer metrics need.
type pipelineReply struct {
	reply
	body        []byte
	effective   time.Duration
	interrupted bool
}

// handle serves one deadline request through the pipeline.
func (p *pipeline) handle(r request, deadline time.Duration) (rep pipelineReply, err error) {
	rep.Body = -1
	t0 := time.Now()
	span := func(name string, start time.Time) { p.spans.add(r.ID, name, "", start, time.Now()) }
	pool := p.pools[r.Route]
	ref := p.refs[r.Route]
	ctx, tr := reqtrace.New(context.Background(), pool.Name())
	defer func() {
		tr.Finish(200)
		p.recorder.Record(tr)
		span("serve.pipeline", t0)
	}()

	// The daemon parses the router's budget header here; the pipeline has
	// no router, so the header is empty.
	budget, budgetSet, err := serve.ParseBudget("")
	if err != nil {
		return rep, err
	}
	t := time.Now()
	if err := p.queue.Acquire(ctx); err != nil {
		return rep, fmt.Errorf("queue: %w", err)
	}
	span("serve.queue", t)
	slots := p.reg.Gauge("anytimed_automaton_slots_in_use", nil)
	slots.Inc()
	defer func() {
		slots.Dec()
		p.queue.Release()
	}()

	t = time.Now()
	entry, err := pool.Get(ctx)
	if err != nil {
		return rep, err
	}
	span("serve.pool_get", t)
	entry.Slot.Bind(tr)
	defer func() {
		t := time.Now()
		perr := pool.Put(entry)
		span("serve.pool_put", t)
		entry.Slot.Unbind()
		if err == nil {
			err = perr
		}
	}()

	key := snapcache.Key{App: pool.Name(), Digest: r.Key, Epoch: pipelineEpoch}
	t = time.Now()
	rep.Cache = "miss"
	if ce, hit := serve.SeedFromCache(ctx, entry, p.cache, key); hit {
		rep.Cache = "hit"
		rep.SeedVersion = int(ce.Version)
		p.reg.Counter(telemetry.MetricSnapcacheSeeds, telemetry.Labels{"mode": "warm"}).Inc()
	}
	span("snapcache.seed", t)

	base, _ := serve.ApplyBudget(deadline, budget, budgetSet)
	rep.effective = p.ctrl.Scale(ctx, base, p.queue.Depth())
	t = time.Now()
	res, err := serve.Run(ctx, entry, rep.effective, p.serveHooks)
	if err != nil {
		return rep, err
	}
	span("serve.run", t)
	snap := res.Snapshot
	rep.interrupted = res.Interrupted

	t = time.Now()
	db, err := metrics.SNR(ref.Pix, snap.Value.Pix)
	if err != nil {
		return rep, err
	}
	span("metrics.snr", t)
	snrDB := db
	if math.IsInf(snrDB, 0) || math.IsNaN(snrDB) {
		snrDB = 0
	}
	tr.Deliver(uint64(snap.Version), snap.Final, res.Interrupted, snrDB, time.Since(t0))
	if !snap.Final {
		p.reg.Histogram("anytimed_delivered_snr_millidb", nil).Observe(uint64(max(db, 0) * 1000))
	}

	t = time.Now()
	var buf bytes.Buffer
	if err := pix.EncodePNM(&buf, snap.Value); err != nil {
		return rep, err
	}
	rep.body = bytes.Clone(buf.Bytes())
	span("pix.encode", t)

	rep.Status = 200
	rep.Version = int(snap.Version)
	rep.Final = snap.Final
	rep.SNR = metrics.FormatDB(db)

	t = time.Now()
	serve.Admit(p.cache, key, serve.Result[*pix.Image]{Snapshot: snap}, snrDB)
	span("snapcache.admit", t)
	return rep, nil
}
