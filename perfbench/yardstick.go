package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"anytime/internal/apps/conv2d"
	"anytime/internal/apps/debayer"
	"anytime/internal/apps/dwt53"
	"anytime/internal/apps/histeq"
	"anytime/internal/apps/kmeans"
	"anytime/internal/core"
	"anytime/internal/pix"
)

// offlineApp is one of the paper's five apps with its seeded input, its
// Precise baseline and the reference that baseline produced.
type offlineApp struct {
	name    string
	precise func() (*pix.Image, error)
	build   func() (*core.Automaton, *core.Buffer[*pix.Image], error)
	ref     *pix.Image
}

// offlineApps prepares the five apps on inputs drawn from seed; the
// references are computed here, before any timing.
func offlineApps(size, workers int, seed uint64) ([]*offlineApp, error) {
	gray, err := pix.SyntheticGray(size, size, seed)
	if err != nil {
		return nil, err
	}
	rgb, err := pix.SyntheticRGB(size, size, seed)
	if err != nil {
		return nil, err
	}
	bayer, err := pix.BayerGRBG(rgb)
	if err != nil {
		return nil, err
	}
	apps := []*offlineApp{
		{
			name:    "conv2d",
			precise: func() (*pix.Image, error) { return conv2d.Precise(gray, conv2d.Config{Workers: workers}) },
			build: func() (*core.Automaton, *core.Buffer[*pix.Image], error) {
				r, err := conv2d.New(gray, conv2d.Config{Workers: workers})
				if err != nil {
					return nil, nil, err
				}
				return r.Automaton, r.Out, nil
			},
		},
		{
			name:    "histeq",
			precise: func() (*pix.Image, error) { return histeq.Precise(gray, histeq.Config{Workers: workers}) },
			build: func() (*core.Automaton, *core.Buffer[*pix.Image], error) {
				r, err := histeq.New(gray, histeq.Config{Workers: workers})
				if err != nil {
					return nil, nil, err
				}
				return r.Automaton, r.Out, nil
			},
		},
		{
			name:    "dwt53",
			precise: func() (*pix.Image, error) { return dwt53.Precise(gray, dwt53.Config{Workers: workers}) },
			build: func() (*core.Automaton, *core.Buffer[*pix.Image], error) {
				r, err := dwt53.New(gray, dwt53.Config{Workers: workers})
				if err != nil {
					return nil, nil, err
				}
				return r.Automaton, r.Out, nil
			},
		},
		{
			name:    "debayer",
			precise: func() (*pix.Image, error) { return debayer.Precise(bayer, debayer.Config{Workers: workers}) },
			build: func() (*core.Automaton, *core.Buffer[*pix.Image], error) {
				r, err := debayer.New(bayer, debayer.Config{Workers: workers})
				if err != nil {
					return nil, nil, err
				}
				return r.Automaton, r.Out, nil
			},
		},
		{
			name:    "kmeans",
			precise: func() (*pix.Image, error) { return kmeans.Precise(rgb, kmeans.Config{Workers: workers}) },
			build: func() (*core.Automaton, *core.Buffer[*pix.Image], error) {
				r, err := kmeans.New(rgb, kmeans.Config{Workers: workers})
				if err != nil {
					return nil, nil, err
				}
				return r.Automaton, r.Out, nil
			},
		},
	}
	for _, a := range apps {
		if a.ref, err = a.precise(); err != nil {
			return nil, fmt.Errorf("%s reference: %w", a.name, err)
		}
	}
	return apps, nil
}

// offlineRun is a built automaton of one app, with an observer that
// stamps its first publish of each run.
type offlineRun struct {
	app   *offlineApp
	a     *core.Automaton
	out   *core.Buffer[*pix.Image]
	first atomic.Int64 // UnixNano of the run's first publish, 0 before it
}

// buildOffline constructs every app's automaton: the offline part of the
// workload's set-up.
func buildOffline(apps []*offlineApp) ([]*offlineRun, error) {
	runs := make([]*offlineRun, len(apps))
	for i, app := range apps {
		a, out, err := app.build()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", app.name, err)
		}
		r := &offlineRun{app: app, a: a, out: out}
		out.OnPublish(func(core.Snapshot[*pix.Image]) {
			r.first.CompareAndSwap(0, time.Now().UnixNano())
		})
		runs[i] = r
	}
	return runs, nil
}

// appSamples are one app's per-round timings in milliseconds.
type appSamples struct {
	baseline, first, precise []float64
}

// offlineResult is a closed-loop offline window.
type offlineResult struct {
	apps      map[string]*appSamples
	attempted int
	failed    int
	errs      []error
	// Filled by a traced window only.
	publishes, checkpoints, edgeWaits, busyMs []float64
	stopUs                                    []float64
}

// coreCounter counts one run's events through core.Hooks and the output
// buffer.
type coreCounter struct {
	checkpoints, edgeWaits, publishes atomic.Int64
	busyNs                            atomic.Int64
}

func (c *coreCounter) hooks() *core.Hooks {
	return &core.Hooks{
		Checkpoint:  func(string, time.Duration) { c.checkpoints.Add(1) },
		EdgeWait:    func(string, string, core.Version) { c.edgeWaits.Add(1) },
		EdgeRecv:    func(string) { c.edgeWaits.Add(1) },
		StageFinish: func(_ string, _ error, d time.Duration) { c.busyNs.Add(int64(d)) },
	}
}

func (c *coreCounter) reset() {
	c.checkpoints.Store(0)
	c.edgeWaits.Store(0)
	c.publishes.Store(0)
	c.busyNs.Store(0)
}

// runOffline runs rounds of every app, closed loop and one run at a time,
// until window has passed (and at least minRounds were run): the Precise
// baseline, then the anytime automaton from Start to Done. Each final
// output must be bit-identical to the baseline's. With traced set, core
// events are counted through core.Hooks, and afterwards runs are
// interrupted after their first publish until stops of them have timed
// Stop until Done.
func runOffline(runs []*offlineRun, window time.Duration, minRounds int, traced bool, stops int) offlineResult {
	res := offlineResult{apps: make(map[string]*appSamples)}
	for _, r := range runs {
		res.apps[r.app.name] = &appSamples{}
	}
	var cc coreCounter
	if traced {
		for _, r := range runs {
			r.a.SetHooks(cc.hooks())
			r.out.OnPublish(func(core.Snapshot[*pix.Image]) { cc.publishes.Add(1) })
		}
		defer func() {
			for _, r := range runs {
				r.a.SetHooks(nil)
			}
		}()
	}
	fail := func(err error) {
		res.failed++
		if len(res.errs) < 8 {
			res.errs = append(res.errs, err)
		}
	}
	start := time.Now()
	for round := 0; round < minRounds || time.Since(start) < window; round++ {
		for _, r := range runs {
			s := res.apps[r.app.name]
			res.attempted++
			t0 := time.Now()
			base, err := r.app.precise()
			baseline := time.Since(t0)
			if err != nil || !slices.Equal(base.Pix, r.app.ref.Pix) {
				fail(fmt.Errorf("%s baseline: output differs or failed: %v", r.app.name, err))
				continue
			}
			cc.reset()
			r.first.Store(0)
			t0 = time.Now()
			if err := r.a.Start(context.Background()); err != nil {
				fail(fmt.Errorf("%s start: %w", r.app.name, err))
				continue
			}
			<-r.a.Done()
			total := time.Since(t0)
			first := time.Duration(r.first.Load() - t0.UnixNano())
			if err := checkOfflineFinal(r); err != nil {
				fail(err)
			} else {
				s.baseline = append(s.baseline, ms(baseline))
				s.first = append(s.first, ms(first))
				s.precise = append(s.precise, ms(total))
				if traced {
					res.publishes = append(res.publishes, float64(cc.publishes.Load()))
					res.checkpoints = append(res.checkpoints, float64(cc.checkpoints.Load()))
					res.edgeWaits = append(res.edgeWaits, float64(cc.edgeWaits.Load()))
					res.busyMs = append(res.busyMs, float64(cc.busyNs.Load())/1e6)
				}
			}
			if err := r.a.Reset(); err != nil {
				fail(fmt.Errorf("%s reset: %w", r.app.name, err))
			}
		}
	}
	// A run that finishes before the stop lands gives no sample; the
	// attempts are capped so a workload of such runs still ends.
	for i := 0; len(res.stopUs) < stops && i < 2*stops; i++ {
		r := runs[i%len(runs)]
		if us, ok, err := stopMidway(r); err != nil {
			fail(err)
		} else if ok {
			res.stopUs = append(res.stopUs, us)
		}
	}
	return res
}

// checkOfflineFinal requires a clean finish whose final output is
// bit-identical to the Precise reference.
func checkOfflineFinal(r *offlineRun) error {
	if err := r.a.Err(); err != nil {
		return fmt.Errorf("%s run: %w", r.app.name, err)
	}
	sn, ok := r.out.Latest()
	if !ok || !sn.Final {
		return fmt.Errorf("%s run: ended without a final output", r.app.name)
	}
	if !slices.Equal(sn.Value.Pix, r.app.ref.Pix) {
		return fmt.Errorf("%s run: final output differs from Precise", r.app.name)
	}
	return nil
}

// stopMidway starts a run, waits for its first publish, stops it and times
// Stop until Done. ok is false when the run finished before the stop.
func stopMidway(r *offlineRun) (us float64, ok bool, err error) {
	if err := r.a.Start(context.Background()); err != nil {
		return 0, false, fmt.Errorf("%s start: %w", r.app.name, err)
	}
	if _, err := r.out.WaitNewer(context.Background(), 0); err != nil {
		<-r.a.Done()
		return 0, false, fmt.Errorf("%s first publish: %w", r.app.name, err)
	}
	select {
	case <-r.a.Done():
	default:
		t0 := time.Now()
		r.a.Stop()
		<-r.a.Done()
		us, ok = float64(time.Since(t0))/1e3, true
	}
	if err := r.a.Err(); err != nil && !errors.Is(err, core.ErrStopped) {
		return 0, false, fmt.Errorf("%s stopped run: %w", r.app.name, err)
	}
	return us, ok, r.a.Reset()
}

// appYardsticks are the paper's Fig. 11-15 figures for one app, from the
// medians of its rounds.
type appYardsticks struct {
	baselineMs, firstMs, preciseMs float64
}

func (r offlineResult) yardsticks(name string) appYardsticks {
	s := r.apps[name]
	return appYardsticks{median(s.baseline), median(s.first), median(s.precise)}
}

// totals are the workload's offline end-to-end figures: first output and
// precise time summed over the apps, and the geometric mean of the
// precise-at ratios.
func (r offlineResult) totals(names []string) (firstMs, preciseMs, ratio float64) {
	logSum := 0.0
	for _, n := range names {
		y := r.yardsticks(n)
		firstMs += y.firstMs
		preciseMs += y.preciseMs
		logSum += math.Log(y.preciseMs / y.baselineMs)
	}
	return firstMs, preciseMs, math.Exp(logSum / float64(len(names)))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
