package main

import (
	"fmt"
	"slices"
	"time"

	"anytime/internal/pix"
)

// fleetEval is a checked window of client requests.
type fleetEval struct {
	sent, failed, delivered int
	latencyMs, lagMs        []float64
	ontime                  int
	snr                     []float64 // recomputed, capped at snrCap
	finals, hits, hedged    int
	seedVersions            []float64
	versions                []float64
	errs                    []error
	replies                 []reply
}

// evalFleet checks every reply of a window against the references and
// gathers the window's figures. A transport error, a non-200 status or a
// failed output check makes the request failed.
func evalFleet(reqs []request, tim []timing, replies []reply, bodies *bodyStore, refs map[string]*pix.Image) fleetEval {
	e := fleetEval{replies: replies}
	checked := make(map[int]bodyCheck)
	for i, rep := range replies {
		e.sent++
		e.latencyMs = append(e.latencyMs, ms(tim[i].Latency()))
		e.lagMs = append(e.lagMs, ms(tim[i].Lag()))
		err := rep.Err
		if err == nil && rep.Status != 200 {
			err = fmt.Errorf("status %d", rep.Status)
		}
		if err == nil {
			bc, ok := checked[rep.Body]
			if !ok {
				bc = verifyBody(refs[reqs[i].Route], bodies.bodies[rep.Body])
				checked[rep.Body] = bc
			}
			if err = verifyReply(bc, rep.SNR, rep.Final); err == nil {
				e.snr = append(e.snr, cappedSNR(bc.snr))
			}
		}
		if err != nil {
			e.failed++
			if len(e.errs) < 8 {
				e.errs = append(e.errs, fmt.Errorf("request %d %s: %w", reqs[i].ID, reqs[i].Route, err))
			}
			continue
		}
		e.delivered++
		e.versions = append(e.versions, float64(rep.Version))
		if tim[i].Latency() <= deadline+ontimeSlack {
			e.ontime++
		}
		if rep.Final {
			e.finals++
		}
		if rep.Cache == "hit" {
			e.hits++
			e.seedVersions = append(e.seedVersions, float64(rep.SeedVersion))
		}
		if rep.Hedged {
			e.hedged++
		}
	}
	return e
}

// endToEnd computes the pass's end-to-end metrics.
func (m measurement) endToEnd() (map[string]float64, error) {
	fe := m.fleet
	out := map[string]float64{
		"setup_s":      m.setupS,
		"rss_peak_mb":  m.rssMB,
		"ok_share":     1 - share(m.failed(), m.attempted()),
		"ontime_share": share(fe.ontime, fe.sent),
	}
	for _, p := range []struct {
		name string
		xs   []float64
		q    float64
	}{
		{"latency_p50_ms", fe.latencyMs, 0.5},
		{"latency_p99_ms", fe.latencyMs, 0.99},
		{"snr_p50_db", fe.snr, 0.5},
		{"snr_p10_db", fe.snr, 0.1},
	} {
		v, err := mustPercentile(p.name, p.xs, p.q)
		if err != nil {
			return nil, err
		}
		out[p.name] = v
	}
	out["first_output_ms"], out["precise_ms"], out["precise_at_ratio"] = m.offline.totals(offlineAppNames)
	return out, nil
}

// pipelineEval is the checked traced-pipeline window.
type pipelineEval struct {
	fleetEval
	effective   []time.Duration // by request ID: the deadline Run was given
	interrupted int
	cacheBytes  int64
}

// pipelineWindow drives the traced pipeline with the workload's schedule,
// over the same number of connections, and checks its outputs.
func (b *bench) pipelineWindow(reqs []request, spans *spanLog) (pipelineEval, error) {
	p, err := newPipeline(imageSize, workers, b.refs, spans)
	if err != nil {
		return pipelineEval{}, err
	}
	bodies := newBodyStore()
	replies := make([]reply, len(reqs))
	full := make([]pipelineReply, len(reqs))
	tim := openLoop(reqs, b.conns, func(_ int, r request) {
		rep, err := p.handle(r, deadline)
		rep.Err = err
		if err == nil {
			rep.Body = bodies.add(fmt.Sprintf("%s|%d|%t", r.Route, rep.Version, rep.Final), rep.body)
		}
		rep.body = nil
		full[r.ID] = rep
		replies[r.ID] = rep.reply
	})
	spans.link(map[string]string{
		"serve.queue":     "serve.pipeline",
		"serve.pool_get":  "serve.pipeline",
		"snapcache.seed":  "serve.pipeline",
		"serve.run":       "serve.pipeline",
		"metrics.snr":     "serve.pipeline",
		"pix.encode":      "serve.pipeline",
		"snapcache.admit": "serve.pipeline",
		"serve.pool_put":  "serve.pipeline",
	})
	pe := pipelineEval{
		fleetEval:  evalFleet(reqs, tim, replies, bodies, b.refs),
		effective:  make([]time.Duration, len(reqs)),
		cacheBytes: p.cache.Bytes(),
	}
	for i, rep := range full {
		pe.effective[i] = rep.effective
		if rep.interrupted {
			pe.interrupted++
		}
	}
	return pe, nil
}

// layerMetrics computes the per-layer metrics of a traced pass.
func layerMetrics(tr measurement, fleetSpans *spanLog, pipe pipelineEval, pipeSpans *spanLog) (map[string]float64, error) {
	out := make(map[string]float64)
	var errs []error
	pct := func(name string, xs []float64, q, scale float64) {
		v, err := mustPercentile(name, slices.Clone(xs), q)
		if err != nil {
			errs = append(errs, err)
		}
		out[name] = v * scale
	}
	fe := tr.fleet
	pct("loadgen.lag_p99_ms", fe.lagMs, 0.99, 1)
	fleetSelf := fleetSpans.selfTimes()
	pct("loadgen.self_p50_ms", fleetSelf["loadgen.request"], 0.5, 1)

	// Router self time: the router span minus the winning backend's span.
	var routerSelf, handle []float64
	calls := make(map[string]int)
	overDeadline := 0
	for rid, idx := range fleetSpans.byReq() {
		var router, winner *span
		for _, i := range idx {
			s := &fleetSpans.spans[i]
			switch s.Name {
			case "cluster.router":
				router = s
			case "daemon.handle":
				handle = append(handle, ms(s.dur()))
				calls[s.Where]++
				if s.dur() > deadline {
					overDeadline++
				}
				if rid < len(fe.replies) && s.Where == fe.replies[rid].Backend {
					winner = s
				}
			}
		}
		if router != nil && winner != nil {
			routerSelf = append(routerSelf, ms(router.dur()-winner.dur()))
		}
	}
	pct("cluster.router_self_p50_ms", routerSelf, 0.5, 1)
	pct("cluster.router_self_p99_ms", routerSelf, 0.99, 1)
	out["cluster.attempts_per_request"] = share(len(handle), fe.sent)
	out["cluster.hedged_share"] = share(fe.hedged, fe.sent)
	busiest := 0
	for _, n := range calls {
		busiest = max(busiest, n)
	}
	out["cluster.backend_share_max"] = share(busiest, len(handle))
	pct("daemon.handle_p50_ms", handle, 0.5, 1)
	pct("daemon.handle_p99_ms", handle, 0.99, 1)
	out["daemon.over_deadline_share"] = share(overDeadline, len(handle))
	out["daemon.final_share"] = share(fe.finals, fe.delivered)

	// Serve, snapcache, metrics and pix, from the traced pipeline.
	durs := make(map[string][]float64)
	var overshoot, seedHit []float64
	for _, s := range pipeSpans.spans {
		durs[s.Name] = append(durs[s.Name], ms(s.dur()))
		switch s.Name {
		case "serve.run":
			overshoot = append(overshoot, ms(s.dur()-pipe.effective[s.Req]))
		case "snapcache.seed":
			if s.Req < len(pipe.replies) && pipe.replies[s.Req].Cache == "hit" {
				seedHit = append(seedHit, ms(s.dur()))
			}
		}
	}
	pct("serve.pool_get_p50_us", durs["serve.pool_get"], 0.5, 1e3)
	pct("serve.pool_put_p50_us", durs["serve.pool_put"], 0.5, 1e3)
	pct("serve.run_p50_ms", durs["serve.run"], 0.5, 1)
	pct("serve.run_p99_ms", durs["serve.run"], 0.99, 1)
	pct("serve.run_overshoot_p99_ms", overshoot, 0.99, 1)
	out["serve.interrupted_share"] = share(pipe.interrupted, pipe.delivered)
	pct("serve.versions_p50", pipe.versions, 0.5, 1)
	pct("serve.pipeline_self_p50_us", pipeSpans.selfTimes()["serve.pipeline"], 0.5, 1e3)
	pipeP50, _ := percentile(slices.Clone(durs["serve.pipeline"]), 0.5)
	out["serve.pipeline_gap_ms"] = pipeP50 - out["daemon.handle_p50_ms"]

	out["snapcache.hit_share"] = share(fe.hits, fe.sent)
	out["snapcache.seed_version_p50"] = 0 // no hits: nothing was seeded
	if len(fe.seedVersions) > 0 {
		pct("snapcache.seed_version_p50", fe.seedVersions, 0.5, 1)
	}
	// SeedFromCache on a hit; on a window without enough hits, every call
	// (a miss costs the lookup alone).
	if len(seedHit) >= 2*minBeyond {
		pct("snapcache.seed_p50_us", seedHit, 0.5, 1e3)
	} else {
		pct("snapcache.seed_p50_us", durs["snapcache.seed"], 0.5, 1e3)
	}
	pct("snapcache.admit_p50_us", durs["snapcache.admit"], 0.5, 1e3)
	out["snapcache.bytes"] = float64(pipe.cacheBytes)
	pct("metrics.snr_score_p50_us", durs["metrics.snr"], 0.5, 1e3)
	pct("pix.encode_p50_us", durs["pix.encode"], 0.5, 1e3)

	// Core, from the traced offline window.
	off := tr.offline
	out["core.publishes_per_run"] = mean(off.publishes)
	out["core.checkpoints_per_run"] = mean(off.checkpoints)
	out["core.stage_busy_ms"] = mean(off.busyMs)
	out["core.edge_waits_per_run"] = mean(off.edgeWaits)
	pct("core.stop_latency_p99_us", off.stopUs, 0.99, 1)
	for _, app := range offlineAppNames {
		y := off.yardsticks(app)
		out["apps."+app+".baseline_ms"] = y.baselineMs
		out["apps."+app+".first_output_ratio"] = y.firstMs / y.baselineMs
		out["apps."+app+".precise_at_ratio"] = y.preciseMs / y.baselineMs
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("per-layer metrics: %v", errs)
	}
	return out, nil
}
