package harness

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"anytime/internal/core"
	"anytime/internal/metrics"
	"anytime/internal/pix"
)

// haltReps is the number of halted runs behind each sweep point.
const haltReps = 5

// HaltSweep reproduces the paper's literal measurement procedure for the
// runtime–accuracy figures: "executing each automaton and halting it after
// some time to evaluate its output accuracy", once per requested halt
// fraction. build must return a fresh automaton each call; ref is the
// precise output; fractions are normalized halt points (values >= 1 let
// the run finish if it can).
//
// The halted output is chosen by publish time, not by when the halting
// goroutine wakes: an observer on each fresh buffer timestamps every
// publish, and a run reports the newest snapshot published at or before
// start + frac·baseline, or the first snapshot if nothing had been
// published by then. A late timer wake therefore cannot advance the
// reported output. The reported snapshot is retained while the run goes
// on, so build must use clone-mode snapshots (pix.SnapshotClone, every
// app's default), never the recycled tile ring.
//
// Each point is the median-accuracy run of haltReps halted runs, each
// started on a freshly collected heap, so a single run slowed by a
// collection or a descheduled stage goroutine does not decide the point.
//
// The observer-based Collector measures the same curve from a single run;
// TestHaltSweepMatchesObserverProfile validates that equivalence.
func HaltSweep(build func() (*core.Automaton, *core.Buffer[*pix.Image], error), ref *pix.Image, baseline time.Duration, fractions []float64) (Profile, error) {
	if baseline <= 0 {
		return Profile{}, fmt.Errorf("harness: nonpositive baseline %v", baseline)
	}
	if len(fractions) == 0 {
		return Profile{}, fmt.Errorf("harness: no halt fractions")
	}
	p := Profile{App: "halt-sweep", Baseline: baseline}
	for _, frac := range fractions {
		if frac <= 0 {
			return Profile{}, fmt.Errorf("harness: nonpositive halt fraction %v", frac)
		}
		var runs [haltReps]Point
		for i := range runs {
			pt, err := haltOnce(build, ref, baseline, frac)
			if err != nil {
				return Profile{}, err
			}
			runs[i] = pt
		}
		sort.Slice(runs[:], func(i, j int) bool { return runs[i].SNR < runs[j].SNR })
		pt := runs[haltReps/2]
		p.Points = append(p.Points, pt)
		if at := time.Duration(pt.Runtime * float64(baseline)); at > p.Total {
			p.Total = at
		}
	}
	return p, nil
}

// haltOnce builds one automaton, halts it after frac × baseline, and
// returns the reported snapshot's normalized runtime and accuracy.
func haltOnce(build func() (*core.Automaton, *core.Buffer[*pix.Image], error), ref *pix.Image, baseline time.Duration, frac float64) (Point, error) {
	a, out, err := build()
	if err != nil {
		return Point{}, err
	}
	halt := time.Duration(frac * float64(baseline))
	// The observer runs on the stage goroutine; RunUntil returns only
	// after Stop has waited the stages out, so reading snap and at
	// afterwards needs no lock.
	var (
		snap core.Snapshot[*pix.Image]
		at   time.Duration
		have bool
	)
	runtime.GC()
	start := time.Now()
	out.OnPublish(func(s core.Snapshot[*pix.Image]) {
		if since := time.Since(start); !have || since <= halt {
			snap, at, have = s, since, true
		}
	})
	if _, err := RunUntil(a, out, halt); err != nil {
		return Point{}, err
	}
	db, err := metrics.SNR(ref.Pix, snap.Value.Pix)
	if err != nil {
		return Point{}, err
	}
	// The halt point is the runtime, unless the reported snapshot came
	// later (a first output past the halt) or is a final that came
	// earlier (the run finished before the halt).
	if at < halt && !snap.Final {
		at = halt
	}
	return Point{Runtime: float64(at) / float64(baseline), SNR: db}, nil
}
