// Command perfbench is the repository's benchmark. One run measures one
// workload: an open-loop window of deadline requests through an in-process
// fleet (a cluster.Router over three daemon.Server backends), followed by
// a closed-loop window of the paper's five apps run to precise next to
// their Precise baselines. It checks every output, prints every metric by
// name and unit, and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 1 the run measures the workload untraced, then again with
// spans around the calls into each layer, and reports the per-layer
// metrics and the tracing overhead instead of the end-to-end metrics.
//
// Build and run it from the repository root with perfbench/run.sh; see
// perfbench/README.md for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"anytime/internal/apps/conv2d"
	"anytime/internal/apps/histeq"
	"anytime/internal/pix"
)

// Workload parameters shared by every workload.
const (
	imageSize = 256 // image side, for the fleet and the offline apps
	workers   = 2   // workers per stage (the anytimed default)
	backends  = 3
	deadline  = 20 * time.Millisecond
	rate      = 40.0 // Poisson arrivals per second
	// ontimeSlack is what a request may take beyond its deadline and still
	// count as on time: the response's trip through router and client, and
	// a stall behind another request on a busy connection.
	ontimeSlack = 10 * time.Millisecond
	// keySpacing is how many requests apart a recurring key comes back.
	keySpacing = 120
	// fleetShare is the part of -seconds spent in the fleet window; the
	// offline window takes the rest.
	fleetShare = 0.8
	setups     = 3 // set-ups per run; setup_s is their median
	minRounds  = 10
	stopRuns   = 1100 // interrupted runs timed per traced run
)

// routes is the request mix, drawn uniformly: three /blur requests to one
// /equalize. /equalize often finishes within the deadline, so its outputs
// sit at the top of the SNR distribution; weighting the mix keeps the SNR
// median inside the /blur approximations rather than on the step between
// the two routes.
var routes = []string{"/blur", "/blur", "/blur", "/equalize"}

// workloads maps a workload name to its key recurrence: how many times each
// ?input= key is requested in a window.
var workloads = map[string]int{
	"fleet-cold": 1,
	"fleet-warm": 3,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: fleet-cold or fleet-warm")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 40, "measured seconds per window pair")
	traceFlag := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	root := flag.String("root", ".", "repository root (trace files go under .bench_build)")
	flag.Parse()
	recur, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traceFlag)
		os.Exit(2)
	}
	b := &bench{
		workload: *name,
		seed:     *seed,
		recur:    recur,
		fleetWin: time.Duration(float64(*seconds) * fleetShare * float64(time.Second)),
		offWin:   time.Duration(float64(*seconds) * (1 - fleetShare) * float64(time.Second)),
		conns:    runtime.NumCPU(),
	}
	res, err := b.run(*root, *traceFlag == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// bench is one run of one workload.
type bench struct {
	workload string
	seed     uint64
	recur    int
	fleetWin time.Duration
	offWin   time.Duration
	conns    int

	refs map[string]*pix.Image // fleet route → precise reference
	apps []*offlineApp
}

// run measures the workload untraced and, when traced is set, again with
// spans, and returns the run's result line.
func (b *bench) run(root string, traced bool) (result, error) {
	h := hostRecord(root)
	hb, _ := json.Marshal(h)
	fmt.Printf("host %s\n", hb)
	fmt.Printf("workload %s seed %d: fleet window %v at %.0f req/s, deadline %v, key recurrence %d, %d connections; offline window %v\n",
		b.workload, b.seed, b.fleetWin, rate, deadline, b.recur, b.conns, b.offWin)
	if err := b.prepare(); err != nil {
		return result{}, err
	}
	reqs := schedule(b.seed, rate, b.fleetWin, routes, b.recur, keySpacing)
	keys := distinctKeys(reqs)
	fmt.Printf("schedule: %d requests, %d keys, recurrence-implied hit share %.4f\n", len(reqs), keys, share(len(reqs)-keys, len(reqs)))

	setup, f, runs, err := b.setUp()
	if err != nil {
		return result{}, err
	}
	plain := b.measure(f, runs, reqs, nil)
	plain.setupS = setup
	plain.rssMB = peakRSSMB()
	e2e, err := plain.endToEnd()
	if err != nil {
		return result{}, err
	}
	report("untraced", plain, e2e)
	if !traced {
		return finish(plain.attempted(), plain.failed(), e2e, endToEnd)
	}

	t0 := time.Now()
	fleetSpans := newSpanLog()
	tf, err := startFleet(backends, imageSize, workers, fleetSpans)
	if err != nil {
		return result{}, err
	}
	truns, err := buildOffline(b.apps)
	if err != nil {
		tf.close()
		return result{}, err
	}
	tracedSetup := time.Since(t0).Seconds()
	tr := b.measure(tf, truns, reqs, fleetSpans)
	tr.setupS = tracedSetup
	pipeSpans := newSpanLog()
	pipe, err := b.pipelineWindow(reqs, pipeSpans)
	if err != nil {
		return result{}, err
	}
	tr.rssMB = peakRSSMB()
	te2e, err := tr.endToEnd()
	if err != nil {
		return result{}, err
	}
	report("traced", tr, te2e)
	layers, err := layerMetrics(tr, fleetSpans, pipe, pipeSpans)
	if err != nil {
		return result{}, err
	}
	for _, m := range endToEnd {
		layers["overhead."+m.name] = te2e[m.name] - e2e[m.name]
	}
	path := filepath.Join(root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", b.workload, b.seed))
	if err := writeSpans(path, map[string]*spanLog{"fleet": fleetSpans, "pipeline": pipeSpans}); err != nil {
		return result{}, err
	}
	fmt.Printf("spans written to %s\n", path)
	attempted := plain.attempted() + tr.attempted() + pipe.sent
	failed := plain.failed() + tr.failed() + pipe.failed
	return finish(attempted, failed, layers, perLayer)
}

// prepare computes the references every output is checked against. It is
// not part of the measured set-up.
func (b *bench) prepare() error {
	gray, err := pix.SyntheticGray(imageSize, imageSize, 1)
	if err != nil {
		return err
	}
	blur, err := conv2d.Precise(gray, conv2d.Config{Workers: workers})
	if err != nil {
		return err
	}
	eq, err := histeq.Precise(gray, histeq.Config{Workers: workers})
	if err != nil {
		return err
	}
	b.refs = map[string]*pix.Image{"/blur": blur, "/equalize": eq}
	b.apps, err = offlineApps(imageSize, workers, b.seed)
	return err
}

// setUp builds the fleet and the offline automata `setups` times, keeping
// the last, and returns the median set-up time in seconds.
func (b *bench) setUp() (float64, *fleet, []*offlineRun, error) {
	var times []float64
	for i := 0; i < setups; i++ {
		runtime.GC()
		t0 := time.Now()
		f, err := startFleet(backends, imageSize, workers, nil)
		if err != nil {
			return 0, nil, nil, err
		}
		runs, err := buildOffline(b.apps)
		if err != nil {
			f.close()
			return 0, nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == setups-1 {
			return median(times), f, runs, nil
		}
		f.close()
	}
	panic("unreachable")
}

// measurement is one pass over the workload: its fleet window and its
// offline window, checked.
type measurement struct {
	fleet   fleetEval
	offline offlineResult
	setupS  float64
	rssMB   float64
}

func (m measurement) attempted() int { return m.fleet.sent + m.offline.attempted }
func (m measurement) failed() int    { return m.fleet.failed + m.offline.failed }

// measure runs the fleet window on f, closes f, then runs the offline
// window. A non-nil spans log marks the pass as traced.
func (b *bench) measure(f *fleet, runs []*offlineRun, reqs []request, spans *spanLog) measurement {
	c := newClient(f.front.URL, b.conns, deadline)
	replies := make([]reply, len(reqs))
	start := time.Now()
	tim := openLoop(reqs, b.conns, func(_ int, r request) { replies[r.ID] = c.do(r) })
	c.close()
	f.close()
	if spans != nil {
		for i, t := range tim {
			spans.add(reqs[i].ID, "loadgen.request", "", start.Add(t.Due), start.Add(t.Done))
			spans.add(reqs[i].ID, "loadgen.conn_wait", "", start.Add(t.Due), start.Add(t.Sent))
		}
		spans.link(map[string]string{
			"loadgen.conn_wait": "loadgen.request",
			"cluster.router":    "loadgen.request",
			"daemon.handle":     "cluster.router",
		})
	}
	m := measurement{fleet: evalFleet(reqs, tim, replies, c.bodies, b.refs)}
	runtime.GC()
	stops := 0
	if spans != nil {
		stops = stopRuns
	}
	m.offline = runOffline(runs, b.offWin, minRounds, spans != nil, stops)
	return m
}

// finish assembles the result line from values, which must hold exactly
// the listed metrics.
func finish(attempted, failed int, values map[string]float64, defs []metricDef) (result, error) {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		return result{}, fmt.Errorf("%d metrics measured, %d declared", len(values), len(defs))
	}
	return res, nil
}

// report prints a pass's metrics and checks, one per line.
func report(pass string, m measurement, e2e map[string]float64) {
	fe := m.fleet
	fmt.Printf("%s fleet: sent %d, succeeded %d, failed %d; final share %.4f; cache hit share %.4f; hedged %d\n",
		pass, fe.sent, fe.sent-fe.failed, fe.failed, share(fe.finals, fe.delivered), share(fe.hits, fe.sent), fe.hedged)
	fmt.Printf("%s offline: runs %d, succeeded %d, failed %d\n", pass, m.offline.attempted, m.offline.attempted-m.offline.failed, m.offline.failed)
	for _, err := range append(fe.errs, m.offline.errs...) {
		fmt.Printf("%s check failed: %v\n", pass, err)
	}
	for _, d := range endToEnd {
		fmt.Printf("%s %s %.6g %s\n", pass, d.name, e2e[d.name], d.unit)
	}
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// hostInfo is the machine and source a result was measured on.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
}

func hostRecord(root string) hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Source:     sourceDigest(root),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					h.Commit += "+modified"
				}
			}
		}
	}
	return h
}
