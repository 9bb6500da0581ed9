// Package histeq implements the histogram-equalization benchmark of the
// paper's evaluation (§IV-A2): enhancing the contrast of an image using a
// histogram of image intensities. Its anytime automaton has four
// computation stages in an asynchronous pipeline, exactly as the paper
// describes:
//
//  1. hist — diffusive; builds a histogram of pixel values using anytime
//     pseudo-random (LFSR) input sampling, as in paper Figure 3.
//  2. cdf — not anytime; builds the cumulative distribution function from
//     the latest histogram snapshot.
//  3. lut — not anytime; normalizes the CDF into the equalization lookup
//     table.
//  4. apply — diffusive; generates the high-contrast image using
//     tree-based output sampling.
//
// The two non-anytime middle stages are why histeq reaches its precise
// output well after 1x the baseline runtime (the paper reports 6x): every
// fresh histogram snapshot can trigger a fresh application pass.
package histeq

import (
	"fmt"

	"anytime/internal/core"
	"anytime/internal/par"
	"anytime/internal/perm"
	"anytime/internal/pix"
)

// Bins is the number of intensity bins (8-bit images).
const Bins = 256

// Config parameterizes the baseline and the automaton.
type Config struct {
	// Workers is the number of goroutines the precise baseline splits its
	// rows across. Default 1. Each automaton stage runs on one goroutine.
	Workers int
	// HistSnapshots is how many intermediate histogram versions the first
	// stage publishes. Default 6.
	HistSnapshots int
	// ApplyGranularity is the number of output pixels written per
	// published snapshot of the apply stage. Default pixels/4.
	ApplyGranularity int
	// Seed drives the LFSR input-sampling permutation. Default 1.
	Seed uint64
	// ReorderInput, if set, pre-permutes the input pixels into the
	// sampling order so the histogram stage reads memory sequentially --
	// the in-memory data reorganization the paper proposes to recover the
	// locality lost to pseudo-random sampling (§IV-C3). The reorder cost
	// is paid once at construction (the paper assumes near-data
	// processing performs it in memory).
	ReorderInput bool
	// Snapshot selects how the apply stage renders round snapshots. The
	// default, pix.SnapshotClone, publishes immutable clones;
	// pix.SnapshotTiles is the zero-copy publish path (see pix.TileCloner
	// for the aliasing contract consumers must then honor).
	Snapshot pix.SnapshotMode
	// Publish selects when the diffusive stages build and publish round
	// snapshots. Default core.PublishEveryRound.
	Publish core.PublishPolicy
	// OnSnapshot, if non-nil, is invoked after each publish of the final
	// output with the published image. Under pix.SnapshotTiles it must not
	// retain img past the call.
	OnSnapshot func(img *pix.Image)
}

func (cfg Config) withDefaults(pixels int) Config {
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.HistSnapshots == 0 {
		cfg.HistSnapshots = 6
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.ApplyGranularity == 0 {
		// The per-pixel work of the apply stage is a single table lookup,
		// so snapshot publication (an O(pixels) render) must stay coarse
		// or it dominates the profile.
		cfg.ApplyGranularity = pixels / 4
		if cfg.ApplyGranularity < 1 {
			cfg.ApplyGranularity = 1
		}
	}
	return cfg
}

func (cfg Config) validate(in *pix.Image) error {
	if in.C != 1 {
		return fmt.Errorf("histeq: input must be grayscale, got %d channels", in.C)
	}
	if cfg.Workers < 1 {
		return fmt.Errorf("histeq: workers %d must be positive", cfg.Workers)
	}
	if cfg.HistSnapshots < 1 {
		return fmt.Errorf("histeq: HistSnapshots %d must be positive", cfg.HistSnapshots)
	}
	if cfg.ApplyGranularity < 1 {
		return fmt.Errorf("histeq: ApplyGranularity %d must be positive", cfg.ApplyGranularity)
	}
	return nil
}

// Hist is the output of the first stage: bin counts over the pixels
// sampled so far.
type Hist struct {
	Counts    [Bins]int64
	Processed int // pixels sampled
}

// CDF is the output of the second stage: the cumulative distribution of
// the histogram it consumed.
type CDF struct {
	Cum     [Bins]int64
	Samples int64 // total samples in the histogram
}

// LUT is the output of the third stage: the intensity remapping table.
type LUT struct {
	Map [Bins]int32
}

// buildCDF computes the cumulative distribution of h.
//
//anytime:hotpath
func buildCDF(h *Hist) *CDF {
	var c CDF
	var run int64
	for v := 0; v < Bins; v++ {
		run += h.Counts[v]
		c.Cum[v] = run
	}
	c.Samples = run
	return &c
}

// buildLUT normalizes a CDF into the standard equalization table
// lut[v] = round((cdf[v]-cdfMin) * 255 / (n-cdfMin)). For degenerate
// inputs (constant images) it falls back to the identity map.
//
//anytime:hotpath
func buildLUT(c *CDF) *LUT {
	var l LUT
	var cdfMin int64
	for v := 0; v < Bins; v++ {
		if c.Cum[v] > 0 {
			cdfMin = c.Cum[v]
			break
		}
	}
	den := c.Samples - cdfMin
	if den <= 0 {
		for v := range l.Map {
			l.Map[v] = int32(v)
		}
		return &l
	}
	for v := 0; v < Bins; v++ {
		num := c.Cum[v] - cdfMin
		if num < 0 {
			num = 0
		}
		l.Map[v] = int32((num*255 + den/2) / den)
	}
	return &l
}

//
//anytime:hotpath
func binOf(v int32) int {
	if v < 0 {
		return 0
	}
	if v >= Bins {
		return Bins - 1
	}
	return int(v)
}

// Precise computes the baseline equalized image: exact histogram, CDF,
// LUT, and a parallel application pass.
func Precise(in *pix.Image, cfg Config) (*pix.Image, error) {
	cfg = cfg.withDefaults(in.Pixels())
	if err := cfg.validate(in); err != nil {
		return nil, err
	}
	var h Hist
	for _, v := range in.Pix {
		h.Counts[binOf(v)]++
	}
	h.Processed = in.Pixels()
	lut := buildLUT(buildCDF(&h))
	out, err := pix.NewGray(in.W, in.H)
	if err != nil {
		return nil, err
	}
	par.Rows(in.H, cfg.Workers, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			for x := 0; x < in.W; x++ {
				out.SetGray(x, y, lut.Map[binOf(in.Gray(x, y))])
			}
		}
	})
	return out, nil
}

// Run is a constructed histeq anytime automaton with its output buffer and
// the intermediate buffers of the pipeline (exposed for tests and tools).
type Run struct {
	Automaton *core.Automaton
	HistBuf   *core.Buffer[*Hist]
	CDFBuf    *core.Buffer[*CDF]
	LUTBuf    *core.Buffer[*LUT]
	Out       *core.Buffer[*pix.Image]
}

// New builds the four-stage histeq automaton described in the package
// comment.
func New(in *pix.Image, cfg Config) (*Run, error) {
	cfg = cfg.withDefaults(in.Pixels())
	if err := cfg.validate(in); err != nil {
		return nil, err
	}
	pixels := in.Pixels()
	inOrd, err := perm.PseudoRandom(pixels, cfg.Seed)
	if err != nil {
		return nil, err
	}
	outOrd, err := perm.Tree2D(in.H, in.W)
	if err != nil {
		return nil, err
	}

	histBuf := core.NewBuffer[*Hist]("hist", nil)
	cdfBuf := core.NewBuffer[*CDF]("cdf", nil)
	lutBuf := core.NewBuffer[*LUT]("lut", nil)
	out := core.NewBuffer[*pix.Image]("histeq", nil)
	a := core.New()

	// Stage 1: diffusive histogram via pseudo-random input sampling into
	// one running histogram, copied at each snapshot. The per-element work
	// is one increment, so the batched diffusive runner keeps the sampling
	// overhead proportionate.
	histGran := pixels / cfg.HistSnapshots
	if histGran < 1 {
		histGran = 1
	}
	hist := &Hist{}
	// With ReorderInput, position pos of the order reads reordered[pos]
	// (sequential); otherwise it reads in.Pix[inOrd.At(pos)] (random).
	// Both visit exactly the same multiset of pixels. The branch between
	// the two lives outside the per-element loop: one table increment per
	// pixel is cheap enough that a closure call per sample used to double
	// the stage's cost.
	var reordered []int32
	if cfg.ReorderInput {
		reordered, err = inOrd.Reorder(in.Pix)
		if err != nil {
			return nil, err
		}
	}
	if err := a.AddStage("hist", func(c *core.Context) error {
		return core.DiffusiveBatch(c, histBuf, pixels,
			func(lo, hi int) error {
				if reordered != nil {
					for _, v := range reordered[lo:hi] {
						hist.Counts[binOf(v)]++
					}
				} else {
					px := in.Pix
					for pos := lo; pos < hi; pos++ {
						hist.Counts[binOf(px[inOrd.At(pos)])]++
					}
				}
				hist.Processed += hi - lo
				return nil
			},
			func(processed int) (*Hist, error) {
				published := *hist
				return &published, nil
			},
			core.RoundConfig{Granularity: histGran, Policy: cfg.Publish},
			true)
	}); err != nil {
		return nil, err
	}

	// Stage 2 (not anytime): CDF of whichever histogram is current.
	if err := a.AddStage("cdf", func(c *core.Context) error {
		return core.AsyncConsume(c, histBuf, func(s core.Snapshot[*Hist]) error {
			_, err := cdfBuf.Publish(buildCDF(s.Value), s.Final)
			return err
		})
	}); err != nil {
		return nil, err
	}

	// Stage 3 (not anytime): normalize the CDF into the lookup table.
	if err := a.AddStage("lut", func(c *core.Context) error {
		return core.AsyncConsume(c, cdfBuf, func(s core.Snapshot[*CDF]) error {
			_, err := lutBuf.Publish(buildLUT(s.Value), s.Final)
			return err
		})
	}); err != nil {
		return nil, err
	}

	// Stage 4: diffusive application with tree-based output sampling; one
	// full anytime pass per consumed LUT version, final pass on the final
	// LUT.
	working, err := pix.NewGray(in.W, in.H)
	if err != nil {
		return nil, err
	}
	snap, err := pix.NewSnapshotter(working, cfg.Snapshot)
	if err != nil {
		return nil, err
	}
	if err := a.AddStage("apply", func(c *core.Context) error {
		return core.AsyncConsume(c, lutBuf, func(s core.Snapshot[*LUT]) error {
			lut := s.Value
			return core.DiffusiveBatch(c, out, pixels,
				func(lo, hi int) error {
					// One lookup and one store per pixel: hoist the
					// table, source, and destination so the loop carries
					// no pointer chases through lut/working/in.
					tab := &lut.Map
					src, dst := in.Pix, working.Pix
					for pos := lo; pos < hi; pos++ {
						d := outOrd.At(pos)
						dst[d] = tab[binOf(src[d])]
						snap.Mark(d)
					}
					return nil
				},
				func(processed int) (*pix.Image, error) {
					img, err := snap.Snapshot()
					if err != nil {
						return nil, err
					}
					if cfg.OnSnapshot != nil {
						cfg.OnSnapshot(img)
					}
					return img, nil
				},
				core.RoundConfig{Granularity: cfg.ApplyGranularity, Policy: cfg.Publish},
				s.Final)
		})
	}); err != nil {
		return nil, err
	}
	// Warm-pool support. The per-run state of this pipeline is the four
	// buffers, the apply snapshotter, and — crucially — the running
	// histogram, which lives outside the stage function: without zeroing it
	// a reused automaton would double-count every pixel and publish a wrong
	// (though well-formed) histogram.
	a.OnReset(func() {
		*hist = Hist{}
		snap.Reset()
		histBuf.Reset()
		cdfBuf.Reset()
		lutBuf.Reset()
		out.Reset()
	})
	// Warm-start support: seed only the output buffer — the histogram, CDF,
	// and LUT stages recompute from scratch (they are cheap and
	// input-global, so a delta start buys nothing there), and the apply
	// stage overwrites every pixel per consumed LUT version, so the precise
	// final is unchanged.
	a.OnSeed(func(seed any, v core.Version) error {
		img, stale, err := pix.AsSeedFrame(seed, in.W, in.H, 1)
		if err != nil {
			return fmt.Errorf("histeq: %w", err)
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
	return &Run{Automaton: a, HistBuf: histBuf, CDFBuf: cdfBuf, LUTBuf: lutBuf, Out: out}, nil
}
