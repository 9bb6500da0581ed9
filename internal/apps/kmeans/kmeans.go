// Package kmeans implements the k-means clustering benchmark of the paper's
// evaluation (§IV-A2, from AxBench): clustering the pixels of an RGB image
// in color space. The anytime automaton has two stages in an asynchronous
// pipeline, following the paper:
//
//  1. cluster — diffusive; samples pixels with a tree permutation, assigns
//     each to its nearest centroid, colors the output pixel with that
//     centroid, and accumulates partial centroid sums.
//     Each Lloyd iteration is one diffusive pass; output snapshots are
//     published throughout, colored with progressively better centroids.
//  2. reduce — not anytime; reduces the partial sums of a completed pass
//     into the next iteration's centroids.
//
// After the final reduction the cluster stage runs one more coloring pass
// with the final centroids, so the automaton's last snapshot is bit-exact
// with the fixed-iteration Lloyd baseline.
package kmeans

import (
	"fmt"
	"sync"

	"anytime/internal/core"
	"anytime/internal/perm"
	"anytime/internal/pix"
)

// Config parameterizes the baseline and the automaton.
type Config struct {
	// K is the number of clusters. Default 6.
	K int
	// Iters is the number of Lloyd iterations. Default 8.
	Iters int
	// Workers is the number of goroutines the precise baseline splits its
	// pixels across. Default 1. Each automaton stage runs on one goroutine.
	Workers int
	// ClusterGranularity is the number of pixels sampled per published
	// output snapshot. Default pixels/2.
	ClusterGranularity int
	// Snapshot selects how the cluster stage renders round snapshots. The
	// default, pix.SnapshotClone, publishes immutable clones;
	// pix.SnapshotTiles is the zero-copy publish path (see pix.TileCloner
	// for the aliasing contract consumers must then honor).
	Snapshot pix.SnapshotMode
	// Publish selects when round snapshots are built and published.
	// Default core.PublishEveryRound.
	Publish core.PublishPolicy
	// OnSnapshot, if non-nil, is invoked after each publish of the
	// rendered output image. Under pix.SnapshotTiles it must not retain
	// img past the call.
	OnSnapshot func(img *pix.Image)
}

func (cfg Config) withDefaults(pixels int) Config {
	if cfg.K == 0 {
		cfg.K = 6
	}
	if cfg.Iters == 0 {
		cfg.Iters = 8
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.ClusterGranularity == 0 {
		cfg.ClusterGranularity = pixels / 2
		if cfg.ClusterGranularity < 1 {
			cfg.ClusterGranularity = 1
		}
	}
	return cfg
}

func (cfg Config) validate(in *pix.Image) error {
	if in.C != 3 {
		return fmt.Errorf("kmeans: input must be RGB, got %d channels", in.C)
	}
	if in.Pixels() == 0 {
		return fmt.Errorf("kmeans: empty image")
	}
	if cfg.K < 1 {
		return fmt.Errorf("kmeans: k %d must be positive", cfg.K)
	}
	if cfg.Iters < 1 {
		return fmt.Errorf("kmeans: iterations %d must be positive", cfg.Iters)
	}
	if cfg.Workers < 1 {
		return fmt.Errorf("kmeans: workers %d must be positive", cfg.Workers)
	}
	if cfg.ClusterGranularity < 1 {
		return fmt.Errorf("kmeans: granularity must be positive")
	}
	return nil
}

// Centroid is one cluster center in RGB space.
type Centroid [3]int32

// Model is the reduce stage's published output: the centroids after a
// completed Lloyd iteration.
type Model struct {
	Centroids []Centroid
	Iter      int // 1-based Lloyd iteration that produced these centroids
}

// Partials is the cluster stage's published output to the reduce stage:
// the accumulated sums of one completed pass.
type Partials struct {
	Sum   [][3]int64
	Count []int64
	Iter  int // 1-based Lloyd iteration these partials belong to
}

// accum is the partial sums of a pass (or, in the precise baseline, of one
// goroutine's share of it).
type accum struct {
	sum   [][3]int64
	count []int64
}

func newAccum(k int) *accum {
	return &accum{sum: make([][3]int64, k), count: make([]int64, k)}
}

func (a *accum) reset() {
	for i := range a.sum {
		a.sum[i] = [3]int64{}
		a.count[i] = 0
	}
}

// nearest returns the index of the centroid closest to pixel p (squared
// Euclidean distance in RGB space, lowest index on ties).
func nearest(cents []Centroid, r, g, b int32) int {
	best := 0
	bestD := int64(1) << 62
	for i, c := range cents {
		dr := int64(r - c[0])
		dg := int64(g - c[1])
		db := int64(b - c[2])
		d := dr*dr + dg*dg + db*db
		if d < bestD {
			bestD = d
			best = i
		}
	}
	return best
}

// initCentroids picks k deterministic seed centroids from evenly spaced
// pixels of the image.
func initCentroids(in *pix.Image, k int) []Centroid {
	n := in.Pixels()
	cents := make([]Centroid, k)
	for i := range cents {
		idx := (i*n + n/2) / k % n
		cents[i] = Centroid{in.Pix[idx*3], in.Pix[idx*3+1], in.Pix[idx*3+2]}
	}
	return cents
}

// updateCentroids derives the next centroids from accumulated sums; empty
// clusters keep their previous center.
func updateCentroids(prev []Centroid, sum [][3]int64, count []int64) []Centroid {
	next := make([]Centroid, len(prev))
	for i := range next {
		if count[i] == 0 {
			next[i] = prev[i]
			continue
		}
		for c := 0; c < 3; c++ {
			v := sum[i][c]
			n := count[i]
			// Round to nearest (values are non-negative pixel sums).
			next[i][c] = int32((v + n/2) / n)
		}
	}
	return next
}

// render colors every pixel with its nearest centroid's color.
func render(in *pix.Image, cents []Centroid) (*pix.Image, error) {
	out, err := pix.NewRGB(in.W, in.H)
	if err != nil {
		return nil, err
	}
	for p := 0; p < in.Pixels(); p++ {
		writeRendered(in, out, cents, p)
	}
	return out, nil
}

func writeRendered(in, out *pix.Image, cents []Centroid, p int) {
	r, g, b := in.Pix[p*3], in.Pix[p*3+1], in.Pix[p*3+2]
	c := cents[nearest(cents, r, g, b)]
	out.Pix[p*3] = c[0]
	out.Pix[p*3+1] = c[1]
	out.Pix[p*3+2] = c[2]
}

// PreciseModel runs the baseline fixed-iteration Lloyd algorithm and
// returns the final centroids.
func PreciseModel(in *pix.Image, cfg Config) ([]Centroid, error) {
	cfg = cfg.withDefaults(in.Pixels())
	if err := cfg.validate(in); err != nil {
		return nil, err
	}
	cents := initCentroids(in, cfg.K)
	n := in.Pixels()
	for t := 0; t < cfg.Iters; t++ {
		acc := newAccum(cfg.K)
		accumulateRange(in, cents, acc, 0, n, cfg.Workers)
		cents = updateCentroids(cents, acc.sum, acc.count)
	}
	return cents, nil
}

// accumulateRange assigns pixels [lo, hi) and accumulates into acc,
// splitting across workers with private partials merged at the end.
func accumulateRange(in *pix.Image, cents []Centroid, acc *accum, lo, hi, workers int) {
	if workers <= 1 {
		for p := lo; p < hi; p++ {
			r, g, b := in.Pix[p*3], in.Pix[p*3+1], in.Pix[p*3+2]
			i := nearest(cents, r, g, b)
			acc.sum[i][0] += int64(r)
			acc.sum[i][1] += int64(g)
			acc.sum[i][2] += int64(b)
			acc.count[i]++
		}
		return
	}
	parts := make([]*accum, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		parts[w] = newAccum(len(cents))
		go func(w int) {
			defer wg.Done()
			p0 := lo + (hi-lo)*w/workers
			p1 := lo + (hi-lo)*(w+1)/workers
			accumulateRange(in, cents, parts[w], p0, p1, 1)
		}(w)
	}
	wg.Wait()
	for _, part := range parts {
		for i := range acc.sum {
			acc.sum[i][0] += part.sum[i][0]
			acc.sum[i][1] += part.sum[i][1]
			acc.sum[i][2] += part.sum[i][2]
			acc.count[i] += part.count[i]
		}
	}
}

// Precise computes the baseline output image: fixed-iteration Lloyd
// clustering followed by rendering every pixel with its centroid color.
func Precise(in *pix.Image, cfg Config) (*pix.Image, error) {
	cents, err := PreciseModel(in, cfg)
	if err != nil {
		return nil, err
	}
	return render(in, cents)
}

// Run is a constructed kmeans anytime automaton with its buffers.
type Run struct {
	Automaton *core.Automaton
	// ModelBuf carries the reduce stage's centroid versions, one per
	// completed Lloyd iteration.
	ModelBuf *core.Buffer[*Model]
	// Out carries the progressively colored output image.
	Out *core.Buffer[*pix.Image]
}

// New builds the two-stage kmeans automaton described in the package
// comment.
func New(in *pix.Image, cfg Config) (*Run, error) {
	cfg = cfg.withDefaults(in.Pixels())
	if err := cfg.validate(in); err != nil {
		return nil, err
	}
	n := in.Pixels()
	ord, err := perm.Tree2D(in.H, in.W)
	if err != nil {
		return nil, err
	}
	partialsBuf := core.NewBuffer[*Partials]("kmeans-partials", nil)
	modelBuf := core.NewBuffer[*Model]("kmeans-model", nil)
	out := core.NewBuffer[*pix.Image]("kmeans", nil)
	a := core.New()

	working, err := pix.NewRGB(in.W, in.H)
	if err != nil {
		return nil, err
	}
	snap, err := pix.NewSnapshotter(working, cfg.Snapshot)
	if err != nil {
		return nil, err
	}
	publishSnapshot := func() (*pix.Image, error) {
		img, err := snap.Snapshot()
		if err != nil {
			return nil, err
		}
		if cfg.OnSnapshot != nil {
			cfg.OnSnapshot(img)
		}
		return img, nil
	}

	// Stage 1: diffusive clustering + coloring. Each Lloyd iteration is a
	// pass over the tree-ordered pixels accumulating partial sums; the
	// output pixel is colored with the current centroid at assignment time,
	// so the whole-application output is available early and improves as
	// both sampling resolution and centroid quality increase.
	if err := a.AddStage("cluster", func(c *core.Context) error {
		cents := initCentroids(in, cfg.K)
		acc := newAccum(cfg.K)
		for t := 1; t <= cfg.Iters; t++ {
			acc.reset()
			prev := cents
			err := core.DiffusiveBatch(c, out, n,
				func(lo, hi int) error {
					for pos := lo; pos < hi; pos++ {
						p := ord.At(pos)
						r, g, b := in.Pix[p*3], in.Pix[p*3+1], in.Pix[p*3+2]
						i := nearest(prev, r, g, b)
						acc.sum[i][0] += int64(r)
						acc.sum[i][1] += int64(g)
						acc.sum[i][2] += int64(b)
						acc.count[i]++
						ci := prev[i]
						working.Pix[p*3] = ci[0]
						working.Pix[p*3+1] = ci[1]
						working.Pix[p*3+2] = ci[2]
						snap.Mark(p)
					}
					return nil
				},
				func(processed int) (*pix.Image, error) { return publishSnapshot() },
				core.RoundConfig{Granularity: cfg.ClusterGranularity, Policy: cfg.Publish},
				false)
			if err != nil {
				return err
			}
			// Hand a copy of the completed pass's sums to the reduce stage
			// and wait for the next iteration's centroids.
			sums := &Partials{Sum: append([][3]int64(nil), acc.sum...), Count: append([]int64(nil), acc.count...), Iter: t}
			if _, err := partialsBuf.Publish(sums, t == cfg.Iters); err != nil {
				return err
			}
			model, err2 := modelBuf.WaitNewer(c.Context(), core.Version(t-1))
			if err2 != nil {
				return core.ErrStopped
			}
			cents = model.Value.Centroids
		}
		// Final pass: color every pixel with the final centroids, exactly
		// as the baseline renders its output.
		return core.DiffusiveBatch(c, out, n,
			func(lo, hi int) error {
				for pos := lo; pos < hi; pos++ {
					p := ord.At(pos)
					writeRendered(in, working, cents, p)
					snap.Mark(p)
				}
				return nil
			},
			func(processed int) (*pix.Image, error) { return publishSnapshot() },
			core.RoundConfig{Granularity: cfg.ClusterGranularity, Policy: cfg.Publish},
			true)
	}); err != nil {
		return nil, err
	}

	// Stage 2 (not anytime): reduce the partial sums of a completed pass
	// into the next centroids. The cluster stage's
	// publish-then-wait handshake makes the exchange lock-step, so every
	// partials version is consumed exactly once.
	if err := a.AddStage("reduce", func(c *core.Context) error {
		prev := initCentroids(in, cfg.K)
		return core.AsyncConsume(c, partialsBuf, func(s core.Snapshot[*Partials]) error {
			prev = updateCentroids(prev, s.Value.Sum, s.Value.Count)
			_, err := modelBuf.Publish(&Model{Centroids: prev, Iter: s.Value.Iter}, s.Final)
			return err
		})
	}); err != nil {
		return nil, err
	}
	// Warm-pool support. Both stages create their iteration state (centroids,
	// accumulator) inside the stage function, so a restart rebuilds it; what
	// persists across runs is the three buffers and the snapshotter. Rewinding the buffers also restarts the version numbering
	// the cluster↔reduce WaitNewer handshake counts on.
	a.OnReset(func() {
		snap.Reset()
		partialsBuf.Reset()
		modelBuf.Reset()
		out.Reset()
	})
	// Warm-start support: seed only the output buffer — the
	// partials/model handshake must start from version 1 (the cluster stage
	// waits on exact model versions per iteration), and every pixel is
	// recolored each pass, so a seeded run's precise final is unchanged.
	a.OnSeed(func(seed any, v core.Version) error {
		img, stale, err := pix.AsSeedFrame(seed, in.W, in.H, 3)
		if err != nil {
			return fmt.Errorf("kmeans: %w", err)
		}
		img.CloneInto(working)
		if err := snap.Seed(stale); err != nil {
			return err
		}
		first, err := snap.Snapshot()
		if err != nil {
			return err
		}
		return out.Seed(first, v)
	})
	return &Run{Automaton: a, ModelBuf: modelBuf, Out: out}, nil
}
