// Command anytime runs one of the paper's benchmark applications as an
// anytime automaton — the "hold the enter key for more precision"
// experience of the paper's introduction, on the command line.
//
// Usage:
//
//	anytime -app conv2d|histeq|dwt53|debayer|kmeans
//	        [-size N] [-workers N] [-seed N]
//	        [-halt FRACTION] [-in image.pgm] [-out image.pgm]
//	        [-tiles] [-publish every|demand|adaptive]
//	        [-telemetry] [-curve curve.json] [-reqtrace] [-cache]
//
// The tool measures the precise baseline, starts the automaton, halts it at
// the requested fraction of the baseline runtime (1.0 or more lets it run
// to the precise output), reports the SNR of the halted output, and
// optionally writes it as a PGM/PPM file. With -in, a user-supplied binary
// PGM image replaces the synthetic input (conv2d, histeq, dwt53; debayer
// treats it as a Bayer mosaic).
//
// -tiles publishes the diffusive image stages' snapshots through the
// zero-copy tile ring (pix.SnapshotTiles) instead of fresh clones; -publish
// selects the round publish policy (core.PublishPolicy). -telemetry
// attaches the runtime metrics registry (the same instruments anytimed
// exposes at /metrics) and dumps a summary table on exit. -curve records
// the run's accuracy-versus-time samples, writes them as JSON, and prints
// the ASCII runtime–accuracy plot the harness draws for the paper's §V
// figures. -reqtrace records the run as a request trace — the same span
// model anytimed keeps in its flight recorder — and prints the span tree
// (run lifecycle, every publish, delivery) with the publish timeline.
// -cache runs the snapshot-cache demo (conv2d only): a cold run, a warm
// start seeded from its cached output, and a delta start for a perturbed
// next frame, all at the same wall-clock budget — see docs/CACHING.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"anytime/internal/apps/conv2d"
	"anytime/internal/apps/debayer"
	"anytime/internal/apps/dwt53"
	"anytime/internal/apps/histeq"
	"anytime/internal/apps/kmeans"
	"anytime/internal/core"
	"anytime/internal/harness"
	"anytime/internal/metrics"
	"anytime/internal/pix"
	"anytime/internal/reqtrace"
	"anytime/internal/telemetry"
	"anytime/internal/trace"
)

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "anytime:", err)
		os.Exit(1)
	}
}

// opts is the tool's parsed command line.
type opts struct {
	app       string
	size      int
	workers   int
	seed      uint64
	halt      float64
	accept    float64
	in        string
	out       string
	diff      string
	trace     bool
	telemetry bool
	reqtrace  bool
	curve     string
	tiles     bool
	publish   string
	cache     bool
}

func parseFlags(args []string) (opts, error) {
	var o opts
	fs := flag.NewFlagSet("anytime", flag.ContinueOnError)
	fs.StringVar(&o.app, "app", "conv2d", "application: conv2d, histeq, dwt53, debayer, kmeans")
	fs.IntVar(&o.size, "size", 512, "synthetic input side length")
	fs.IntVar(&o.workers, "workers", runtime.GOMAXPROCS(0), "goroutines per parallel pass (the precise baselines and dwt53's transform); each diffusive stage runs on one goroutine")
	fs.Uint64Var(&o.seed, "seed", 1, "synthetic input seed")
	fs.Float64Var(&o.halt, "halt", 1.0, "halt after this fraction of the baseline runtime (>=1 runs to precise)")
	fs.Float64Var(&o.accept, "accept", 0, "stop automatically once output SNR reaches this many dB (0 disables)")
	fs.BoolVar(&o.trace, "trace", false, "print an ASCII publish timeline after the run")
	fs.BoolVar(&o.telemetry, "telemetry", false, "attach the metrics registry and dump a summary table on exit")
	fs.BoolVar(&o.reqtrace, "reqtrace", false, "record the run as a request trace and print its span tree afterwards")
	fs.StringVar(&o.curve, "curve", "", "record the accuracy-vs-time curve, write it as JSON here, and print its plot")
	fs.StringVar(&o.in, "in", "", "input PGM/PPM file (optional; synthetic input otherwise)")
	fs.StringVar(&o.out, "out", "", "write the halted output image here (optional)")
	fs.StringVar(&o.diff, "diff", "", "write an error heat image (|precise - output| x8) here (optional)")
	fs.BoolVar(&o.tiles, "tiles", false, "publish image snapshots through the zero-copy tile ring")
	fs.StringVar(&o.publish, "publish", "every", "round publish policy: every, demand, adaptive")
	fs.BoolVar(&o.cache, "cache", false, "run the snapshot-cache demo: cold, warm-started, and delta-started runs at one fixed budget (conv2d only)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	return o, nil
}

// publishPolicy maps the -publish flag to core's policy.
func publishPolicy(name string) (core.PublishPolicy, error) {
	switch name {
	case "", "every":
		return core.PublishEveryRound, nil
	case "demand":
		return core.PublishOnDemand, nil
	case "adaptive":
		return core.PublishAdaptive, nil
	default:
		return 0, fmt.Errorf("unknown publish policy %q (want every, demand, or adaptive)", name)
	}
}

// appRun bundles what the driver needs from each application.
type appRun struct {
	baseline func() error    // one precise execution (timed)
	ref      *pix.Image      // precise output for SNR
	automa   *core.Automaton // constructed automaton
	out      *core.Buffer[*pix.Image]
}

func run(o opts) error {
	if o.cache {
		return runCacheDemo(o)
	}
	if o.accept > 0 && o.tiles {
		// The accept controller evaluates snapshots on its own goroutine
		// (core.StopWhen), concurrently with further publishes — a retaining
		// consumer by the tile ring's contract. Fall back to clone snapshots
		// rather than race on ring storage.
		o.tiles = false
		fmt.Println("note: -accept evaluates snapshots asynchronously; ignoring -tiles")
	}
	ar, err := build(o)
	if err != nil {
		return err
	}
	var tr *trace.Tracer
	if o.trace {
		tr = trace.New()
		trace.Attach(tr, ar.out)
	}
	var reg *telemetry.Registry
	var pipelineHooks *core.Hooks
	if o.telemetry {
		reg = telemetry.NewRegistry()
		pipelineHooks = telemetry.PipelineHooks(reg)
		telemetry.ObserveBuffer(reg, ar.out)
	}
	// The request tracer attaches like anytimed's serving path does: a Slot
	// carries the (eventual) trace, the publish observer and lifecycle hooks
	// report through it, and the hooks chain with telemetry's on the
	// automaton's single attachment point.
	var slot *reqtrace.Slot
	if o.reqtrace {
		slot = &reqtrace.Slot{}
		out := ar.out
		out.OnPublish(func(s core.Snapshot[*pix.Image]) {
			slot.Publish(out.Name(), uint64(s.Version), len(s.Value.Pix), s.Final)
		})
	}
	if h := core.ChainHooks(pipelineHooks, slot.CoreHooks()); h != nil {
		ar.automa.SetHooks(h)
	}
	var rec *telemetry.AccuracyRecorder
	if o.curve != "" {
		rec = telemetry.NewAccuracyRecorder(ar.ref)
		if o.tiles {
			// The recorder retains every published image until export —
			// far past the tile ring's reuse window — so it must copy.
			rec.CopyOnRecord()
		}
		telemetry.ObserveAccuracy(rec, ar.out)
	}
	baseline, err := harness.TimeBaseline(ar.baseline, 3)
	if err != nil {
		return err
	}
	fmt.Printf("baseline precise runtime: %v\n", baseline)
	if rec != nil {
		rec.Begin() // collects garbage first, so it precedes tr.Start
	}
	if tr != nil {
		tr.Start()
	}
	// The trace starts here, not at attach time, so its offsets measure the
	// anytime run alone — not the baseline timing runs above.
	var rtr *reqtrace.Trace
	if slot != nil {
		_, rtr = reqtrace.New(context.Background(), o.app)
		slot.Bind(rtr)
	}

	var snap core.Snapshot[*pix.Image]
	start := time.Now()
	if o.accept > 0 {
		// Automated accuracy control (paper §III-A): stop as soon as the
		// whole-application output reaches the acceptability bar.
		accepted := core.StopWhen(ar.automa, ar.out, func(s core.Snapshot[*pix.Image]) bool {
			db, err := metrics.SNR(ar.ref.Pix, s.Value.Pix)
			return err == nil && db >= o.accept
		})
		if err := ar.automa.Start(context.Background()); err != nil {
			return err
		}
		s, ok := <-accepted
		if !ok {
			return fmt.Errorf("automaton ended without any output")
		}
		snap = s
	} else if o.halt >= 1 {
		if err := ar.automa.Start(context.Background()); err != nil {
			return err
		}
		if err := ar.automa.Wait(); err != nil {
			return err
		}
		s, ok := ar.out.Latest()
		if !ok {
			return fmt.Errorf("automaton produced no output")
		}
		snap = s
	} else {
		s, err := harness.RunUntil(ar.automa, ar.out, time.Duration(o.halt*float64(baseline)))
		if err != nil {
			return err
		}
		snap = s
	}
	elapsed := time.Since(start)

	db, err := metrics.SNR(ar.ref.Pix, snap.Value.Pix)
	if err != nil {
		return err
	}
	fmt.Printf("halted after %v (%.2fx baseline): version %d, final=%v, SNR %s dB\n",
		elapsed, float64(elapsed)/float64(baseline), snap.Version, snap.Final, metrics.FormatDB(db))
	if o.out != "" {
		if err := pix.WritePNMFile(o.out, snap.Value); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", o.out)
	}
	if o.diff != "" {
		heat, err := pix.DiffImage(ar.ref, snap.Value, 8)
		if err != nil {
			return err
		}
		if err := pix.WritePNMFile(o.diff, heat); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", o.diff)
	}
	if tr != nil {
		if err := tr.Timeline(os.Stdout, 72); err != nil {
			return err
		}
	}
	if rtr != nil {
		snr := db
		if math.IsInf(snr, 0) || math.IsNaN(snr) {
			snr = 0 // precise output: no finite SNR to record
		}
		rtr.Deliver(uint64(snap.Version), snap.Final, !snap.Final, snr, elapsed)
		slot.Unbind()
		rtr.Finish(0)
		fmt.Println("request trace:")
		if err := rtr.WriteDetail(os.Stdout, 72); err != nil {
			return err
		}
	}
	if rec != nil {
		f, err := os.Create(o.curve)
		if err != nil {
			return err
		}
		if err := rec.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", o.curve)
		// The recorder feeds the same Profile type the harness plots the
		// paper's §V figures from — one code path for live and offline.
		profile, err := rec.Profile(o.app, baseline)
		if err != nil {
			return err
		}
		if err := profile.Plot(os.Stdout, 72, 12); err != nil {
			return err
		}
	}
	if reg != nil {
		// The automaton-finish hook fires on the supervisor goroutine just
		// after Done closes; give the lifecycle counters a moment to settle
		// so the summary reports the finished run.
		awaitIdle(reg, 500*time.Millisecond)
		fmt.Println("telemetry summary:")
		if err := reg.WriteSummary(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// awaitIdle polls until the registry's active-automata gauge drains to zero
// or the budget elapses.
func awaitIdle(reg *telemetry.Registry, budget time.Duration) {
	deadline := time.Now().Add(budget)
	for reg.Gauge(telemetry.MetricAutomataActive, nil).Value() != 0 {
		if time.Now().After(deadline) {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func build(o opts) (*appRun, error) {
	policy, err := publishPolicy(o.publish)
	if err != nil {
		return nil, err
	}
	snapMode := pix.SnapshotClone
	if o.tiles {
		snapMode = pix.SnapshotTiles
	}
	grayInput := func() (*pix.Image, error) {
		if o.in != "" {
			im, err := pix.ReadPNMFile(o.in)
			if err != nil {
				return nil, err
			}
			if im.C != 1 {
				return nil, fmt.Errorf("%s needs a grayscale (PGM) input", o.app)
			}
			return im, nil
		}
		return pix.SyntheticGray(o.size, o.size, o.seed)
	}
	switch o.app {
	case "conv2d":
		in, err := grayInput()
		if err != nil {
			return nil, err
		}
		cfg := conv2d.Config{Workers: o.workers, Snapshot: snapMode, Publish: policy}
		ref, err := conv2d.Precise(in, cfg)
		if err != nil {
			return nil, err
		}
		r, err := conv2d.New(in, cfg)
		if err != nil {
			return nil, err
		}
		return &appRun{
			baseline: func() error { _, err := conv2d.Precise(in, cfg); return err },
			ref:      ref, automa: r.Automaton, out: r.Out,
		}, nil
	case "histeq":
		in, err := grayInput()
		if err != nil {
			return nil, err
		}
		cfg := histeq.Config{Workers: o.workers, Snapshot: snapMode, Publish: policy}
		ref, err := histeq.Precise(in, cfg)
		if err != nil {
			return nil, err
		}
		r, err := histeq.New(in, cfg)
		if err != nil {
			return nil, err
		}
		return &appRun{
			baseline: func() error { _, err := histeq.Precise(in, cfg); return err },
			ref:      ref, automa: r.Automaton, out: r.Out,
		}, nil
	case "dwt53":
		in, err := grayInput()
		if err != nil {
			return nil, err
		}
		// dwt53 is iterative (whole-image passes), not diffusive: the tile
		// ring and publish policies don't apply to it.
		cfg := dwt53.Config{Workers: o.workers}
		r, err := dwt53.New(in, cfg)
		if err != nil {
			return nil, err
		}
		return &appRun{
			baseline: func() error { _, err := dwt53.Precise(in, cfg); return err },
			ref:      in, automa: r.Automaton, out: r.Out,
		}, nil
	case "debayer":
		var in *pix.Image
		if o.in != "" {
			in, err = pix.ReadPNMFile(o.in)
			if err == nil && in.C != 1 {
				err = fmt.Errorf("debayer needs a grayscale Bayer mosaic (PGM) input")
			}
		} else {
			var rgb *pix.Image
			rgb, err = pix.SyntheticRGB(o.size, o.size, o.seed)
			if err == nil {
				in, err = pix.BayerGRBG(rgb)
			}
		}
		if err != nil {
			return nil, err
		}
		cfg := debayer.Config{Workers: o.workers, Snapshot: snapMode, Publish: policy}
		ref, err := debayer.Precise(in, cfg)
		if err != nil {
			return nil, err
		}
		r, err := debayer.New(in, cfg)
		if err != nil {
			return nil, err
		}
		return &appRun{
			baseline: func() error { _, err := debayer.Precise(in, cfg); return err },
			ref:      ref, automa: r.Automaton, out: r.Out,
		}, nil
	case "kmeans":
		var in *pix.Image
		if o.in != "" {
			in, err = pix.ReadPNMFile(o.in)
			if err == nil && in.C != 3 {
				err = fmt.Errorf("kmeans needs an RGB (PPM) input")
			}
		} else {
			in, err = pix.SyntheticRGB(o.size, o.size, o.seed)
		}
		if err != nil {
			return nil, err
		}
		cfg := kmeans.Config{Workers: o.workers, Snapshot: snapMode, Publish: policy}
		ref, err := kmeans.Precise(in, cfg)
		if err != nil {
			return nil, err
		}
		r, err := kmeans.New(in, cfg)
		if err != nil {
			return nil, err
		}
		return &appRun{
			baseline: func() error { _, err := kmeans.Precise(in, cfg); return err },
			ref:      ref, automa: r.Automaton, out: r.Out,
		}, nil
	default:
		return nil, fmt.Errorf("unknown app %q", o.app)
	}
}
