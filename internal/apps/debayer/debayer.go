// Package debayer implements the debayer benchmark of the paper's
// evaluation (§IV-A2): converting a single-sensor Bayer filter mosaic
// (GRBG layout) to a full RGB image by bilinear interpolation. Like 2dconv,
// its anytime automaton is a single diffusive stage using output sampling
// with a two-dimensional tree permutation (Figure 14).
package debayer

import (
	"fmt"

	"anytime/internal/core"
	"anytime/internal/par"
	"anytime/internal/perm"
	"anytime/internal/pix"
	"anytime/internal/sampling"
)

// Config parameterizes the baseline and the automaton.
type Config struct {
	// Workers is the number of goroutines the precise baseline splits its
	// rows across. Default 1. The automaton's stage runs on one goroutine.
	Workers int
	// Granularity is the number of output pixels interpolated per
	// published snapshot. Default pixels/12 (publishing an RGB snapshot
	// costs a full-image render, so it must stay coarse relative to the
	// cheap per-pixel interpolation).
	Granularity int
	// Snapshot selects how round snapshots are rendered. The default,
	// pix.SnapshotClone, publishes immutable clones; pix.SnapshotTiles is
	// the zero-copy publish path (see pix.TileCloner for the aliasing
	// contract consumers must then honor).
	Snapshot pix.SnapshotMode
	// Publish selects when round snapshots are built and published.
	// Default core.PublishEveryRound.
	Publish core.PublishPolicy
	// OnSnapshot, if non-nil, is invoked after each publish with the
	// number of output pixels computed so far and the published image.
	// Under pix.SnapshotTiles it must not retain img past the call.
	OnSnapshot func(processed int, img *pix.Image)
}

func (cfg Config) withDefaults(pixels int) Config {
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.Granularity == 0 {
		cfg.Granularity = pixels / 12
		if cfg.Granularity < 1 {
			cfg.Granularity = 1
		}
	}
	return cfg
}

func (cfg Config) validate(in *pix.Image) error {
	if in.C != 1 {
		return fmt.Errorf("debayer: input mosaic must be single-channel, got %d channels", in.C)
	}
	if cfg.Workers < 1 {
		return fmt.Errorf("debayer: workers %d must be positive", cfg.Workers)
	}
	if cfg.Granularity < 0 {
		return fmt.Errorf("debayer: negative granularity %d", cfg.Granularity)
	}
	return nil
}

// interpolate computes the full RGB value at (x, y) of the GRBG mosaic by
// averaging the nearest mosaic sites of each color channel (bilinear
// demosaicing with clamped borders). Interior pixels take a single-pass
// fast path; border pixels fall back to the channel-by-channel scan. Both
// visit exactly the same mosaic sites per channel, so results are
// bit-identical.
//
//anytime:hotpath
func interpolate(m *pix.Image, x, y int) (r, g, b int32) {
	if x >= 1 && y >= 1 && x+1 < m.W && y+1 < m.H {
		return interpolateInterior(m, x, y)
	}
	for c := 0; c < 3; c++ {
		v := channelAt(m, x, y, c)
		switch c {
		case 0:
			r = v
		case 1:
			g = v
		default:
			b = v
		}
	}
	return r, g, b
}

// interpolateInterior gathers the 3x3 neighborhood once, accumulating a
// sum and site count per channel, instead of re-scanning the neighborhood
// for each of the three channels with per-site bounds checks. Each row is
// re-sliced once (full-slice expression, so the inner loads are
// bounds-check-free) and the GRBG parity of a site reduces to the parities
// of its coordinates. The channel sampled at (x, y) itself returns the raw
// sensor value, as in channelAt.
//
//anytime:hotpath
func interpolateInterior(m *pix.Image, x, y int) (r, g, b int32) {
	w := m.W
	px := m.Pix
	var sum [3]int64
	var cnt [3]int64
	base := (y-1)*w + x - 1
	for dy := 0; dy < 3; dy++ {
		row := px[base : base+3 : base+3]
		yy := y + dy - 1
		// GRBG: even rows alternate G R G…, odd rows B G B… (by x parity).
		if yy&1 == 0 {
			if x&1 == 0 { // columns x-1, x, x+1 are odd, even, odd
				sum[0] += int64(row[0]) + int64(row[2])
				cnt[0] += 2
				sum[1] += int64(row[1])
				cnt[1]++
			} else {
				sum[1] += int64(row[0]) + int64(row[2])
				cnt[1] += 2
				sum[0] += int64(row[1])
				cnt[0]++
			}
		} else {
			if x&1 == 0 {
				sum[1] += int64(row[0]) + int64(row[2])
				cnt[1] += 2
				sum[2] += int64(row[1])
				cnt[2]++
			} else {
				sum[2] += int64(row[0]) + int64(row[2])
				cnt[2] += 2
				sum[1] += int64(row[1])
				cnt[1]++
			}
		}
		base += w
	}
	center := pix.BayerChannelGRBG(x, y)
	out := [3]int32{}
	for c := 0; c < 3; c++ {
		if c == center {
			out[c] = px[y*w+x]
			continue
		}
		s, n := sum[c], cnt[c]
		out[c] = int32((s + n/2) / n)
	}
	return out[0], out[1], out[2]
}

// channelAt estimates channel c at (x, y) by averaging the mosaic samples
// of that channel in the 3x3 neighborhood (including (x, y) itself when the
// mosaic samples c there).
//
//anytime:hotpath
func channelAt(m *pix.Image, x, y, c int) int32 {
	if pix.BayerChannelGRBG(x, y) == c {
		return m.Gray(x, y)
	}
	var sum int64
	var count int64
	for dy := -1; dy <= 1; dy++ {
		yy := y + dy
		if yy < 0 || yy >= m.H {
			continue
		}
		for dx := -1; dx <= 1; dx++ {
			xx := x + dx
			if xx < 0 || xx >= m.W {
				continue
			}
			if pix.BayerChannelGRBG(xx, yy) == c {
				sum += int64(m.Gray(xx, yy))
				count++
			}
		}
	}
	if count == 0 {
		// Degenerate geometry (e.g. 1-pixel-wide images may lack a channel
		// site nearby); fall back to the raw sensor sample.
		return m.Gray(x, y)
	}
	return int32((sum + count/2) / count)
}

// Precise computes the baseline demosaiced RGB image in parallel over row
// bands.
func Precise(in *pix.Image, cfg Config) (*pix.Image, error) {
	cfg = cfg.withDefaults(in.Pixels())
	if err := cfg.validate(in); err != nil {
		return nil, err
	}
	out, err := pix.NewRGB(in.W, in.H)
	if err != nil {
		return nil, err
	}
	par.Rows(in.H, cfg.Workers, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			for x := 0; x < in.W; x++ {
				r, g, b := interpolate(in, x, y)
				out.Set(x, y, 0, r)
				out.Set(x, y, 1, g)
				out.Set(x, y, 2, b)
			}
		}
	})
	return out, nil
}

// Run is a constructed debayer anytime automaton with its output buffer.
type Run struct {
	Automaton *core.Automaton
	Out       *core.Buffer[*pix.Image]
}

// New builds the debayer anytime automaton: one diffusive stage that
// interpolates output pixels in 2D tree order, publishing progressively
// higher-resolution RGB approximations and finally the precise image.
func New(in *pix.Image, cfg Config) (*Run, error) {
	cfg = cfg.withDefaults(in.Pixels())
	if err := cfg.validate(in); err != nil {
		return nil, err
	}
	ord, err := perm.Tree2D(in.H, in.W)
	if err != nil {
		return nil, err
	}
	working, err := pix.NewRGB(in.W, in.H)
	if err != nil {
		return nil, err
	}
	snap, err := pix.NewSnapshotter(working, cfg.Snapshot)
	if err != nil {
		return nil, err
	}
	out := core.NewBuffer[*pix.Image]("debayer", nil)
	a := core.New()
	err = a.AddStage("interpolate", func(c *core.Context) error {
		return sampling.Map(c, out, ord,
			func(dst int) error {
				x, y := dst%in.W, dst/in.W
				r, g, b := interpolate(in, x, y)
				working.Set(x, y, 0, r)
				working.Set(x, y, 1, g)
				working.Set(x, y, 2, b)
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
	// Warm-pool support: like conv2d, the only per-run state is the
	// snapshotter mask and the output buffer.
	a.OnReset(func() {
		snap.Reset()
		out.Reset()
	})
	// Warm-start support: a cached RGB output frame (or a pix.SeedFrame with
	// delta-start stale tiles) becomes the starting published state; the run
	// still interpolates every pixel, so the precise final is unchanged.
	a.OnSeed(func(seed any, v core.Version) error {
		img, stale, err := pix.AsSeedFrame(seed, in.W, in.H, 3)
		if err != nil {
			return fmt.Errorf("debayer: %w", err)
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
