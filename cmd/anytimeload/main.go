// Command anytimeload grades the cluster tier: an open-loop load generator
// that offers a fixed arrival schedule (Poisson by default — arrivals never
// slow down because the server did) and records what the anytime contract
// actually delivered: latency percentiles and the delivered-SNR
// distribution. Under an anytime fleet, overload should show up as lower
// delivered SNR at steady latency — that is the whole point of the
// architecture — so the report keeps both axes side by side.
//
// Two modes:
//
//	anytimeload -target http://router:8090 [...]
//	    drive an existing router or backend.
//
//	anytimeload -selfcluster 3 [...]
//	    spin up an in-process fleet (3 anytimed backends + a router, no
//	    sockets beyond the loopback listeners) and drive that. This is the
//	    CI smoke mode and how BENCH_cluster.json is produced: no external
//	    topology required.
//
// The sweep runs the configured rate at each -multipliers step (default
// 1,10,100 — nominal, saturated, far past saturation) and writes one JSON
// report per step to -out:
//
//	anytimeload -selfcluster 3 -rate 40 -duration 10s -deadline 60ms \
//	            -multipliers 1,10,100 -out BENCH_cluster.json
//
// Every run is seeded: same flags, same arrival schedule.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"time"

	"anytime/internal/cluster"
	"anytime/internal/daemon"
)

func main() {
	target := flag.String("target", "", "base URL of the router or backend to drive")
	selfN := flag.Int("selfcluster", 0, "run an in-process fleet of N backends + router instead of -target")
	deadline := flag.Duration("deadline", 60*time.Millisecond, "per-request deadline knob (0 = precise requests)")
	rate := flag.Float64("rate", 40, "offered load at multiplier 1, requests/second")
	duration := flag.Duration("duration", 10*time.Second, "arrival window per run")
	curve := flag.String("curve", "poisson", "arrival curve: poisson | uniform | ramp")
	seed := flag.Int64("seed", 1, "arrival schedule seed")
	keys := flag.Int("keys", 16, "distinct ?input= routing keys")
	routes := flag.String("routes", "/blur,/equalize", "comma-separated app routes")
	multipliers := flag.String("multipliers", "1,10,100", "comma-separated rate multipliers to sweep")
	out := flag.String("out", "BENCH_cluster.json", "report output path (- for stdout)")
	size := flag.Int("size", 64, "selfcluster: backend image side length")
	workers := flag.Int("workers", 2, "selfcluster: backend goroutines per precise-baseline pass")
	flag.Parse()

	mults, err := parseMultipliers(*multipliers)
	if err != nil {
		log.Fatal(err)
	}
	base := *target
	if *selfN > 0 {
		var stop func()
		base, stop, err = selfCluster(*selfN, *size, *workers)
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
	}
	if base == "" {
		log.Fatal("anytimeload: need -target or -selfcluster")
	}

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 256}}
	type run struct {
		Multiplier float64             `json:"multiplier"`
		Report     *cluster.LoadReport `json:"report"`
	}
	doc := struct {
		Target   string        `json:"target"`
		Backends int           `json:"backends,omitempty"`
		BaseRate float64       `json:"base_rate_rps"`
		Deadline string        `json:"deadline"`
		Duration string        `json:"duration"`
		Curve    string        `json:"curve"`
		Seed     int64         `json:"seed"`
		Runs     []run         `json:"runs"`
		Routes   []string      `json:"routes"`
		Window   time.Duration `json:"-"`
	}{
		Target:   base,
		Backends: *selfN,
		BaseRate: *rate,
		Deadline: deadline.String(),
		Duration: duration.String(),
		Curve:    *curve,
		Seed:     *seed,
		Routes:   splitList(*routes),
	}
	for _, m := range mults {
		log.Printf("run: %.0fx (%.0f rps for %v)", m, *rate*m, *duration)
		rep, err := cluster.RunLoad(context.Background(), cluster.LoadConfig{
			Target:   base,
			Routes:   doc.Routes,
			Deadline: *deadline,
			Rate:     *rate * m,
			Duration: *duration,
			Curve:    *curve,
			Seed:     *seed,
			Keys:     *keys,
			Client:   client,
		})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("  sent=%d ok=%d non_ok=%d err=%d hedged=%d  p50=%.1fms p99=%.1fms  snr p50=%.1fdB p10=%.1fdB",
			rep.Sent, rep.OK, rep.NonOK, rep.Errors, rep.Hedged,
			rep.LatencyP50Ms, rep.LatencyP99Ms, rep.SNRP50DB, rep.SNRP10DB)
		doc.Runs = append(doc.Runs, run{Multiplier: m, Report: rep})
	}

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", *out)
}

// selfCluster boots n in-process backends and a router over them, returning
// the router's base URL and a teardown function.
func selfCluster(n, size, workers int) (string, func(), error) {
	var closers []func()
	stop := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	urls := make([]string, 0, n)
	for i := 0; i < n; i++ {
		srv, err := daemon.New(size, workers, daemon.Config{})
		if err != nil {
			stop()
			return "", nil, fmt.Errorf("backend %d: %w", i, err)
		}
		ts := httptest.NewServer(srv)
		closers = append(closers, ts.Close)
		urls = append(urls, ts.URL)
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Backends:      urls,
		CheckInterval: 200 * time.Millisecond,
	})
	if err != nil {
		stop()
		return "", nil, err
	}
	rt.Start(context.Background())
	closers = append(closers, rt.Close)
	front := httptest.NewServer(rt)
	closers = append(closers, front.Close)
	log.Printf("selfcluster: %d backends behind %s", n, front.URL)
	return front.URL, stop, nil
}

func parseMultipliers(s string) ([]float64, error) {
	var out []float64
	for _, f := range splitList(s) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("anytimeload: bad multiplier %q", f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("anytimeload: no multipliers")
	}
	return out, nil
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
