// Package harness drives the paper's evaluation (§IV): it times precise
// baselines, records runtime–accuracy profiles of running automata
// (Figures 11–15), halts automata at a target fraction of the baseline
// runtime to grab sample outputs (Figures 16–18), sweeps sample-size versus
// accuracy under reduced precision and approximate storage (Figures 19–20),
// and compares the automaton organizations of the §III-D summary example
// (Figure 10).
//
// The paper generates its profiles "from multiple runs, executing each
// automaton and halting it after some time to evaluate its output
// accuracy". This harness instead attaches an observer to the output buffer
// and records every published snapshot of a single run — an equivalent
// measurement (each snapshot is exactly what a halt at that moment would
// observe, by Property 3) at a fraction of the cost.
package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"anytime/internal/core"
	"anytime/internal/metrics"
	"anytime/internal/pix"
)

// Point is one observed output of a running automaton.
type Point struct {
	// Runtime is the elapsed wall time at publication, normalized to the
	// precise baseline's runtime (the x-axis of Figures 11–15).
	Runtime float64
	// SNR is the output accuracy in decibels relative to the precise
	// output (+Inf when bit-exact).
	SNR float64
	// Fraction is the portion of the sample processed, when the producing
	// stage reports one (the x-axis of Figures 19–20); otherwise 0.
	Fraction float64
}

// Profile is the measured runtime–accuracy curve of one automaton run.
type Profile struct {
	App      string
	Baseline time.Duration
	Total    time.Duration // automaton wall time to precise output
	Points   []Point
}

// PreciseAt returns the normalized runtime at which the profile first
// reached +Inf dB, or 0 if it never did.
func (p Profile) PreciseAt() float64 {
	for _, pt := range p.Points {
		if pt.SNR == metrics.InfDB {
			return pt.Runtime
		}
	}
	return 0
}

// BestUnder returns the best SNR among points with normalized runtime at
// most limit, and whether any such point exists.
func (p Profile) BestUnder(limit float64) (float64, bool) {
	best, ok := 0.0, false
	for _, pt := range p.Points {
		if pt.Runtime <= limit && (!ok || pt.SNR > best) {
			best, ok = pt.SNR, true
		}
	}
	return best, ok
}

// WriteCSV emits the profile as "runtime,snr_db,fraction" rows.
func (p Profile) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s: baseline %v, total %v\n", p.App, p.Baseline, p.Total); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "runtime,snr_db,fraction"); err != nil {
		return err
	}
	for _, pt := range p.Points {
		if _, err := fmt.Fprintf(w, "%.4f,%s,%.4f\n", pt.Runtime, metrics.FormatDB(pt.SNR), pt.Fraction); err != nil {
			return err
		}
	}
	return nil
}

// Collector accumulates timestamped output snapshots during a run and
// converts them to a Profile afterwards, so SNR computation never delays
// the pipeline being measured.
type Collector struct {
	ref   *pix.Image
	total int // total sample size for Fraction, 0 if unused
	copy  bool

	mu     sync.Mutex
	start  time.Time
	points []rawPoint
}

type rawPoint struct {
	at        time.Duration
	img       *pix.Image
	processed int
}

// NewCollector returns a collector comparing snapshots against the precise
// reference output. sampleTotal, if nonzero, scales recorded processed
// counts into Fraction.
func NewCollector(ref *pix.Image, sampleTotal int) *Collector {
	return &Collector{ref: ref, total: sampleTotal}
}

// CopyOnRecord makes Record deep-copy each snapshot instead of retaining
// the published pointer. Required when the observed stage publishes through
// the zero-copy tile ring (pix.SnapshotTiles), whose snapshots are reused
// after ring-depth further publishes; a collector retains images until
// Finish, far past that window. Call it before the automaton starts.
func (c *Collector) CopyOnRecord() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.copy = true
}

// Begin collects garbage and then marks the automaton's start time, so a
// collection owed to setup allocations is not charged to the measured run.
func (c *Collector) Begin() {
	runtime.GC()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.start = time.Now()
	c.points = c.points[:0]
}

// Record stores one published snapshot. Unless CopyOnRecord is set, img
// must stay immutable after the call (clone-mode automaton snapshots are;
// tile-ring snapshots are not — see CopyOnRecord). processed may be 0 when
// the producing stage does not report sample sizes.
func (c *Collector) Record(processed int, img *pix.Image) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.copy {
		img = img.Clone()
	}
	c.points = append(c.points, rawPoint{at: now.Sub(c.start), img: img, processed: processed})
}

// Finish computes the profile, normalizing runtimes by baseline.
func (c *Collector) Finish(app string, baseline time.Duration) (Profile, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if baseline <= 0 {
		return Profile{}, fmt.Errorf("harness: nonpositive baseline %v", baseline)
	}
	p := Profile{App: app, Baseline: baseline}
	for _, rp := range c.points {
		db, err := metrics.SNR(c.ref.Pix, rp.img.Pix)
		if err != nil {
			return Profile{}, err
		}
		pt := Point{
			Runtime: float64(rp.at) / float64(baseline),
			SNR:     db,
		}
		if c.total > 0 {
			pt.Fraction = float64(rp.processed) / float64(c.total)
		}
		p.Points = append(p.Points, pt)
		if rp.at > p.Total {
			p.Total = rp.at
		}
	}
	return p, nil
}

// TimeBaseline runs fn reps times and returns the fastest duration (the
// standard way to suppress scheduling noise). reps must be positive.
func TimeBaseline(fn func() error, reps int) (time.Duration, error) {
	if reps < 1 {
		return 0, fmt.Errorf("harness: reps %d must be positive", reps)
	}
	best := time.Duration(0)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d := time.Since(start)
		if i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// RunToCompletion starts the automaton, waits for its precise output, and
// returns the total wall time.
func RunToCompletion(a *core.Automaton) (time.Duration, error) {
	start := time.Now()
	if err := a.Start(context.Background()); err != nil {
		return 0, err
	}
	if err := a.Wait(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// RunUntil starts the automaton, stops it after d (unless it finishes
// first), and returns the output snapshot current at the halt — the
// paper's halt-and-evaluate methodology for Figures 16–18. If the deadline
// lands before the automaton's first publish, RunUntil waits for that first
// snapshot: the earliest valid halt point of an anytime computation is its
// first available output.
//
// The snapshot is taken before Stop, not after it: a stage finishes the
// round it is in before it observes the stop, and that round's publish
// lands after the halt, so it is not part of the halted output. A
// tile-ring snapshot taken here stays valid, since a stopping stage
// publishes at most once more and the ring is deeper than that.
func RunUntil(a *core.Automaton, out *core.Buffer[*pix.Image], d time.Duration) (core.Snapshot[*pix.Image], error) {
	if err := a.Start(context.Background()); err != nil {
		return core.Snapshot[*pix.Image]{}, err
	}
	select {
	case <-a.Done():
	case <-time.After(d):
	}
	if _, ok := out.Latest(); !ok {
		// Nothing published yet; wait for the first output (bounded by the
		// automaton finishing, in which case WaitNewer errors and Latest
		// below reports the truth).
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			<-a.Done()
			cancel()
		}()
		_, _ = out.WaitNewer(ctx, 0)
		cancel()
	}
	snap, ok := out.Latest()
	a.Stop()
	if !ok {
		return snap, fmt.Errorf("harness: automaton finished without publishing any output (halt after %v)", d)
	}
	return snap, nil
}

// MarshalJSON renders the profile for external tooling: points as
// [runtime, snr_db, fraction] triples with +Inf serialized as "inf".
func (p Profile) MarshalJSON() ([]byte, error) {
	type jsonPoint struct {
		Runtime  float64 `json:"runtime"`
		SNR      string  `json:"snr_db"`
		Fraction float64 `json:"fraction,omitempty"`
	}
	pts := make([]jsonPoint, len(p.Points))
	for i, pt := range p.Points {
		pts[i] = jsonPoint{Runtime: pt.Runtime, SNR: metrics.FormatDB(pt.SNR), Fraction: pt.Fraction}
	}
	return json.Marshal(struct {
		App        string      `json:"app"`
		BaselineNS int64       `json:"baseline_ns"`
		TotalNS    int64       `json:"total_ns"`
		Points     []jsonPoint `json:"points"`
	}{p.App, int64(p.Baseline), int64(p.Total), pts})
}
