package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"anytime/internal/cluster"
	"anytime/internal/daemon"
)

// fleet is the in-process serving tier: backends daemon.Servers on
// loopback listeners behind a cluster.Router, built with their default
// configurations.
type fleet struct {
	backends []*httptest.Server
	router   *cluster.Router
	front    *httptest.Server
	stop     context.CancelFunc
}

// startFleet builds and starts the fleet. With a non-nil spans log, the
// router's and every backend's ServeHTTP are wrapped in timing spans.
func startFleet(backends, size, workers int, spans *spanLog) (*fleet, error) {
	f := &fleet{}
	urls := make([]string, 0, backends)
	for i := 0; i < backends; i++ {
		d, err := daemon.New(size, workers, daemon.Config{})
		if err != nil {
			f.close()
			return nil, fmt.Errorf("backend %d: %w", i, err)
		}
		ts := httptest.NewUnstartedServer(nil)
		name := ts.Listener.Addr().String()
		ts.Config.Handler = timed(spans, "daemon.handle", name, d)
		ts.Start()
		f.backends = append(f.backends, ts)
		urls = append(urls, ts.URL)
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{Backends: urls})
	if err != nil {
		f.close()
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	rt.Start(ctx)
	f.router, f.stop = rt, stop
	f.front = httptest.NewUnstartedServer(timed(spans, "cluster.router", "", rt))
	f.front.Start()
	return f, nil
}

// close stops the fleet, front to back, waiting for in-flight requests.
func (f *fleet) close() {
	if f.front != nil {
		f.front.Close()
	}
	if f.router != nil {
		f.stop()
		f.router.Close()
	}
	for _, b := range f.backends {
		b.Close()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// timed wraps h so that each app request (one carrying a rid) records a
// span. With a nil log it returns h itself.
func timed(spans *spanLog, name, where string, h http.Handler) http.Handler {
	if spans == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		if rid, err := strconv.Atoi(r.URL.Query().Get("rid")); err == nil {
			spans.add(rid, name, where, start, end)
		}
	})
}

// reply is what the client kept of one response.
type reply struct {
	Status      int
	Err         error
	Version     int
	Final       bool
	SNR         string // X-Anytime-SNR-dB
	Cache       string // X-Anytime-Cache
	SeedVersion int    // X-Anytime-Seed-Version
	Backend     string // X-Anytime-Backend
	Hedged      bool
	Body        int // index into the window's bodyStore, -1 when none
}

// client sends the window's requests over at most conns connections.
type client struct {
	http     *http.Client
	base     string
	deadline time.Duration
	bodies   *bodyStore
}

func newClient(base string, conns int, deadline time.Duration) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr}, base: base, deadline: deadline, bodies: newBodyStore()}
}

func (c *client) close() { c.http.Transport.(*http.Transport).CloseIdleConnections() }

// url is the request line: the route with its deadline, its cache key,
// and the benchmark's request ID (rid, which the daemon ignores and the
// timing wrappers read).
func (c *client) url(r request) string {
	return fmt.Sprintf("%s%s?deadline=%s&input=%s&rid=%d", c.base, r.Route, c.deadline, r.Key, r.ID)
}

// do performs one request and reads the whole answer.
func (c *client) do(r request) reply {
	rep := reply{Body: -1}
	resp, err := c.http.Get(c.url(r))
	if err != nil {
		rep.Err = err
		return rep
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rep.Status = resp.StatusCode
	if err != nil {
		rep.Err = err
		return rep
	}
	h := resp.Header
	rep.Version, _ = strconv.Atoi(h.Get("X-Anytime-Version"))
	rep.Final = h.Get("X-Anytime-Final") == "true"
	rep.SNR = h.Get("X-Anytime-SNR-dB")
	rep.Cache = h.Get("X-Anytime-Cache")
	rep.SeedVersion, _ = strconv.Atoi(h.Get("X-Anytime-Seed-Version"))
	rep.Backend = h.Get("X-Anytime-Backend")
	rep.Hedged = h.Get("X-Anytime-Hedged") == "true"
	if rep.Status == http.StatusOK {
		rep.Body = c.bodies.add(fmt.Sprintf("%s|%d|%t", r.Route, rep.Version, rep.Final), body)
	}
	return rep
}
