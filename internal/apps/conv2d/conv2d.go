// Package conv2d implements the 2dconv benchmark of the paper's evaluation
// (§IV-A2): a 2D convolution applying a blur filter to a grayscale image,
// "many dot products, computed for each pixel". Its anytime automaton is a
// single diffusive stage using output sampling with a two-dimensional tree
// permutation (Figures 11 and 16). The package also supports the two
// hardware-approximation studies run on 2dconv:
//
//   - reduced fixed-point pixel precision (Figure 19), via bit masking; and
//   - approximate storage for the input image (Figure 20), via the
//     fault-injecting array of internal/store.
package conv2d

import (
	"fmt"

	"anytime/internal/core"
	"anytime/internal/fixpoint"
	"anytime/internal/par"
	"anytime/internal/perm"
	"anytime/internal/pix"
	"anytime/internal/sampling"
	"anytime/internal/store"
)

// Kernel selects the convolution filter.
type Kernel int

const (
	// Box is the uniform mean filter the evaluation uses by default.
	Box Kernel = iota
	// Gaussian is a binomial approximation of a Gaussian blur (Pascal
	// row weights), a heavier but more faithful smoothing filter.
	Gaussian
)

// Config parameterizes both the precise baseline and the anytime automaton.
// The zero value selects the defaults used throughout the evaluation.
type Config struct {
	// KernelSize is the (odd) side of the blur kernel. Default 9.
	KernelSize int
	// Kernel selects the filter. Default Box.
	Kernel Kernel
	// PixelBits is the input pixel precision in bits (1..8). Pixels are
	// reduced with KeepTop before the convolution. Default 8 (precise).
	PixelBits uint
	// Workers is the number of goroutines the precise baseline splits its
	// rows across. Default 1. The automaton's stage runs on one goroutine.
	Workers int
	// Granularity is the number of output pixels computed per published
	// snapshot. Default pixels/32.
	Granularity int
	// Storage, if non-nil, routes input pixel reads through simulated
	// approximate storage with the given per-bit read upset probability.
	Storage *StorageConfig
	// Snapshot selects how round snapshots are rendered. The default,
	// pix.SnapshotClone, publishes immutable clones; pix.SnapshotTiles is
	// the zero-copy publish path (see pix.TileCloner for the aliasing
	// contract consumers must then honor).
	Snapshot pix.SnapshotMode
	// Publish selects when round snapshots are built and published. The
	// default, core.PublishEveryRound, publishes at every round boundary.
	Publish core.PublishPolicy
	// OnSnapshot, if non-nil, is invoked after each publish with the
	// number of output pixels computed so far and the published image.
	// It runs on the stage goroutine; under pix.SnapshotTiles it must not
	// retain img past the call.
	OnSnapshot func(processed int, img *pix.Image)
}

// StorageConfig configures the simulated approximate input storage.
type StorageConfig struct {
	// Prob is the per-bit read upset probability.
	Prob float64
	// Seed makes the fault sequence reproducible.
	Seed uint64
}

func (cfg Config) withDefaults() Config {
	if cfg.KernelSize == 0 {
		cfg.KernelSize = 9
	}
	if cfg.PixelBits == 0 {
		cfg.PixelBits = 8
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	return cfg
}

func (cfg Config) validate(in *pix.Image) error {
	if in.C != 1 {
		return fmt.Errorf("conv2d: input must be grayscale, got %d channels", in.C)
	}
	if cfg.KernelSize < 1 || cfg.KernelSize%2 == 0 {
		return fmt.Errorf("conv2d: kernel size %d must be odd and positive", cfg.KernelSize)
	}
	if cfg.PixelBits < 1 || cfg.PixelBits > 8 {
		return fmt.Errorf("conv2d: pixel precision %d out of range [1,8]", cfg.PixelBits)
	}
	if cfg.Workers < 1 {
		return fmt.Errorf("conv2d: workers %d must be positive", cfg.Workers)
	}
	if cfg.Storage != nil && (cfg.Storage.Prob < 0 || cfg.Storage.Prob > 1) {
		return fmt.Errorf("conv2d: storage probability %v out of range", cfg.Storage.Prob)
	}
	if cfg.Kernel != Box && cfg.Kernel != Gaussian {
		return fmt.Errorf("conv2d: unknown kernel %d", cfg.Kernel)
	}
	return nil
}

// kernelWeights returns the separable 1D weight row for the kernel and its
// total weight: all-ones for Box, the binomial (Pascal) row for Gaussian.
func kernelWeights(k Kernel, size int) ([]int64, int64) {
	w := make([]int64, size)
	if k == Box {
		for i := range w {
			w[i] = 1
		}
		return w, int64(size)
	}
	w[0] = 1
	for i := 1; i < size; i++ {
		for j := i; j > 0; j-- {
			w[j] += w[j-1]
		}
	}
	var total int64
	for _, v := range w {
		total += v
	}
	return w, total
}

// reader abstracts how the convolution fetches input pixels: directly, with
// reduced precision, or through approximate storage.
type reader struct {
	img  *pix.Image
	arr  *store.Array // nil for reliable storage
	drop uint         // low bits to mask off
}

func (r *reader) at(x, y int) int32 {
	var v int32
	if r.arr != nil {
		v = r.arr.Read(y*r.img.W + x)
	} else {
		v = r.img.Gray(x, y)
	}
	return fixpoint.TruncateLow(v, r.drop)
}

// convolvePixel computes the filtered value of output pixel (x, y): the
// rounded weighted mean of the kernel window (separable weights), clamping
// coordinates at the borders.
//
// The common case — reliable full-precision reads with the window fully
// inside the image — takes a fast path over the raw pixel rows. Both paths
// compute the same integer sum (the fast path merely re-associates it as
// Σ_dy wy·(Σ_dx wx·v), exact in int64), so outputs are bit-identical.
// Reads through approximate storage always take the slow path: the fault
// stream of store.Array is stateful, so the read sequence must stay
// exactly as it was.
//
//anytime:hotpath
func convolvePixel(r *reader, weights []int64, wsum int64, w, h, half int, x, y int) int32 {
	if r.arr == nil && r.drop == 0 && x >= half && y >= half && x+half < w && y+half < h {
		return convolveInterior(r.img.Pix, weights, wsum, w, half, x, y)
	}
	var sum int64
	for dy := -half; dy <= half; dy++ {
		yy := clampCoord(y+dy, h)
		wy := weights[dy+half]
		for dx := -half; dx <= half; dx++ {
			xx := clampCoord(x+dx, w)
			sum += wy * weights[dx+half] * int64(r.at(xx, yy))
		}
	}
	total := wsum * wsum
	return int32((sum + total/2) / total)
}

// convolveInterior is convolvePixel's hot path: no clamping, no reader
// indirection. Each kernel row is re-sliced once (one bounds check per
// row, eliminated inside the loop by the full-slice expression) and the
// row sum is unrolled four wide so the multiply-accumulate chains
// pipeline.
//
//anytime:hotpath
func convolveInterior(px []int32, weights []int64, wsum int64, w, half, x, y int) int32 {
	size := 2*half + 1
	weights = weights[:size:size]
	var sum int64
	base := (y-half)*w + x - half
	for dy := 0; dy < size; dy++ {
		row := px[base : base+size : base+size]
		var rs int64
		dx := 0
		for ; dx+4 <= size; dx += 4 {
			rs += weights[dx]*int64(row[dx]) +
				weights[dx+1]*int64(row[dx+1]) +
				weights[dx+2]*int64(row[dx+2]) +
				weights[dx+3]*int64(row[dx+3])
		}
		for ; dx < size; dx++ {
			rs += weights[dx] * int64(row[dx])
		}
		sum += weights[dy] * rs
		base += w
	}
	total := wsum * wsum
	return int32((sum + total/2) / total)
}

func clampCoord(v, n int) int {
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}

// Precise computes the baseline blurred image in parallel over row bands,
// using the same per-pixel computation as the automaton (with reliable
// full-precision reads regardless of cfg's approximation settings).
func Precise(in *pix.Image, cfg Config) (*pix.Image, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(in); err != nil {
		return nil, err
	}
	out, err := pix.NewGray(in.W, in.H)
	if err != nil {
		return nil, err
	}
	half := cfg.KernelSize / 2
	weights, wsum := kernelWeights(cfg.Kernel, cfg.KernelSize)
	par.Rows(in.H, cfg.Workers, func(y0, y1 int) {
		band := reader{img: in}
		for y := y0; y < y1; y++ {
			for x := 0; x < in.W; x++ {
				out.SetGray(x, y, convolvePixel(&band, weights, wsum, in.W, in.H, half, x, y))
			}
		}
	})
	return out, nil
}

// Run is a constructed 2dconv anytime automaton with its output buffer.
type Run struct {
	Automaton *core.Automaton
	Out       *core.Buffer[*pix.Image]
}

// New builds the 2dconv anytime automaton: one diffusive stage that
// computes output pixels in 2D tree order, publishing progressively
// higher-resolution approximations (unvisited pixels are hold-filled from
// their tree ancestors) and finally the precise blurred image.
func New(in *pix.Image, cfg Config) (*Run, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(in); err != nil {
		return nil, err
	}
	ord, err := perm.Tree2D(in.H, in.W)
	if err != nil {
		return nil, err
	}
	working, err := pix.NewGray(in.W, in.H)
	if err != nil {
		return nil, err
	}
	snap, err := pix.NewSnapshotter(working, cfg.Snapshot)
	if err != nil {
		return nil, err
	}
	half := cfg.KernelSize / 2
	weights, wsum := kernelWeights(cfg.Kernel, cfg.KernelSize)
	drop := uint(8 - cfg.PixelBits)

	// The approximate storage array is stateful: its fault stream follows
	// the stage's read sequence, seeded by cfg.Storage.Seed.
	rd := &reader{img: in, drop: drop}
	if cfg.Storage != nil {
		arr, err := store.NewArray(in.Pix, 8, cfg.Storage.Prob, cfg.Storage.Seed)
		if err != nil {
			return nil, err
		}
		rd.arr = arr
	}

	out := core.NewBuffer[*pix.Image]("conv2d", nil)
	a := core.New()
	err = a.AddStage("convolve", func(c *core.Context) error {
		return sampling.Map(c, out, ord,
			func(dst int) error {
				x, y := dst%in.W, dst/in.W
				working.SetGray(x, y, convolvePixel(rd, weights, wsum, in.W, in.H, half, x, y))
				snap.Mark(dst)
				return nil
			},
			func(processed int) (*pix.Image, error) {
				img, err := snap.Snapshot()
				if err != nil {
					return nil, err
				}
				if cfg.OnSnapshot != nil {
					cfg.OnSnapshot(processed, img)
				}
				return img, nil
			},
			core.RoundConfig{Granularity: cfg.Granularity, Policy: cfg.Publish})
	})
	if err != nil {
		return nil, err
	}
	// Warm-pool support: rewinding the snapshotter mask and output buffer is
	// all the per-run state this app has (the tree permutation, kernel
	// weights, and working arena are input-independent and reusable as-is).
	a.OnReset(func() {
		snap.Reset()
		out.Reset()
	})
	// Warm-start support: a cached output frame — optionally a pix.SeedFrame
	// carrying the stale tiles of a delta start — becomes the starting
	// published state. The run still computes every pixel from the input, so
	// the forced-precise final is bit-identical to a cold run's.
	a.OnSeed(func(seed any, v core.Version) error {
		img, stale, err := pix.AsSeedFrame(seed, in.W, in.H, 1)
		if err != nil {
			return fmt.Errorf("conv2d: %w", err)
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
	return &Run{Automaton: a, Out: out}, nil
}
