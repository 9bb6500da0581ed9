// Blurpipeline: a two-stage asynchronous image pipeline built on the public
// API — the shape of the paper's 2dconv benchmark plus a dependent stage.
//
// Stage 1 (diffusive) blurs a synthetic image, computing output pixels in
// 2D tree order so every snapshot is a complete low-resolution image.
// Stage 2 (async consumer, also anytime) thresholds whichever blurred
// snapshot is current into an edge map. Both buffers converge to their
// precise contents; snapshots are written as PGM files you can open in any
// viewer.
//
// Run:
//
//	go run ./examples/blurpipeline [-size 256] [-outdir .]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"path/filepath"

	"anytime"
)

func main() {
	size := flag.Int("size", 256, "image side length")
	outdir := flag.String("outdir", ".", "where to write PGM snapshots")
	flag.Parse()
	if err := run(*size, *outdir); err != nil {
		log.Fatal(err)
	}
}

func run(side int, outdir string) error {
	in, err := anytime.SyntheticGray(side, side, 11)
	if err != nil {
		return err
	}
	ord, err := anytime.Tree2D(side, side)
	if err != nil {
		return err
	}
	n := side * side

	// Stage 1: tree-sampled 5x5 box blur.
	blurWork, err := anytime.NewGrayImage(side, side)
	if err != nil {
		return err
	}
	blurFilled := make([]bool, n)
	blurred := anytime.NewBuffer[*anytime.Image]("blurred", nil)

	// Stage 2: threshold the blurred image into a binary edge-ish map.
	threshWork, err := anytime.NewGrayImage(side, side)
	if err != nil {
		return err
	}
	thresholded := anytime.NewBuffer[*anytime.Image]("thresholded", nil)

	a := anytime.New()
	if err := a.AddStage("blur", func(c *anytime.Context) error {
		return anytime.MapSample(c, blurred, ord,
			func(dst int) error {
				x, y := dst%side, dst/side
				blurWork.Pix[dst] = boxBlur(in, x, y)
				blurFilled[dst] = true
				return nil
			},
			func(processed int) (*anytime.Image, error) {
				return anytime.HoldFill(blurWork, blurFilled)
			},
			anytime.RoundConfig{Granularity: n / 8})
	}); err != nil {
		return err
	}
	if err := a.AddStage("threshold", func(c *anytime.Context) error {
		return anytime.AsyncConsume(c, blurred, func(s anytime.Snapshot[*anytime.Image]) error {
			// The child is itself anytime: one diffusive pass per consumed
			// snapshot, final only on the parent's final version.
			return anytime.DiffusivePass(c, thresholded, n,
				func(pos int) error {
					dst := ord.At(pos)
					if s.Value.Pix[dst] > 128 {
						threshWork.Pix[dst] = 255
					} else {
						threshWork.Pix[dst] = 0
					}
					return nil
				},
				func(processed int) (*anytime.Image, error) {
					return threshWork.CloneInto(nil), nil
				},
				anytime.RoundConfig{Granularity: n / 4},
				s.Final)
		})
	}); err != nil {
		return err
	}

	// Record what the whole application output looks like over time.
	count := 0
	thresholded.OnPublish(func(s anytime.Snapshot[*anytime.Image]) {
		count++
		if count%4 == 0 || s.Final {
			name := fmt.Sprintf("blurpipeline_v%03d.pgm", s.Version)
			if s.Final {
				name = "blurpipeline_final.pgm"
			}
			path := filepath.Join(outdir, name)
			if err := anytime.WritePNMFile(path, s.Value); err != nil {
				log.Printf("write %s: %v", path, err)
				return
			}
			fmt.Printf("version %3d (final=%v) -> %s\n", s.Version, s.Final, path)
		}
	})

	if err := a.Start(context.Background()); err != nil {
		return err
	}
	if err := a.Wait(); err != nil {
		return err
	}
	fmt.Println("precise output reached; every earlier snapshot was a valid approximation")
	return nil
}

// boxBlur computes the 5x5 clamped box mean at (x, y).
func boxBlur(im *anytime.Image, x, y int) int32 {
	var sum, cnt int32
	for dy := -2; dy <= 2; dy++ {
		for dx := -2; dx <= 2; dx++ {
			xx, yy := clamp(x+dx, im.W), clamp(y+dy, im.H)
			sum += im.Gray(xx, yy)
			cnt++
		}
	}
	return (sum + cnt/2) / cnt
}

func clamp(v, n int) int {
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}
