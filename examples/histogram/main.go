// Histogram: a terminal rendition of paper Figure 3 — anytime histogram
// construction via input sampling with a pseudo-random permutation.
//
// The stage samples the pixels of a synthetic image in LFSR order and
// publishes population-weighted histograms; each published version is drawn
// as an ASCII bar chart, visibly converging to the exact histogram.
//
// Run:
//
//	go run ./examples/histogram
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"anytime"
)

const bins = 16

type hist struct {
	counts [bins]int64
}

func main() {
	const side = 256
	img, err := anytime.SyntheticGray(side, side, 9)
	if err != nil {
		log.Fatal(err)
	}
	n := side * side

	ord, err := anytime.PseudoRandom(n, 3)
	if err != nil {
		log.Fatal(err)
	}

	reduce := anytime.Reduce[*hist]{
		NewAcc: func() *hist { return &hist{} },
		Consume: func(acc *hist, idx int) *hist {
			acc.counts[int(img.Pix[idx])*bins/256]++
			return acc
		},
		Merge: func(dst, src *hist) *hist {
			for b := range dst.counts {
				dst.counts[b] += src.counts[b]
			}
			return dst
		},
		Snapshot: func(merged *hist, processed, total int) (*hist, error) {
			// Weight the sampled counts up to the full population so every
			// snapshot estimates the final histogram (paper Figure 3).
			for b := range merged.counts {
				merged.counts[b] = anytime.ScaleCount(merged.counts[b], processed, total)
			}
			return merged, nil
		},
	}

	out := anytime.NewBuffer[*hist]("hist", nil)
	version := 0
	out.OnPublish(func(s anytime.Snapshot[*hist]) {
		version++
		label := fmt.Sprintf("after sample %d/4", version)
		if s.Final {
			label = "precise (all pixels)"
		}
		draw(label, s.Value)
	})

	a := anytime.New()
	if err := a.AddStage("hist", func(c *anytime.Context) error {
		return anytime.RunReduce(c, reduce, out, ord, anytime.RoundConfig{Granularity: n / 4})
	}); err != nil {
		log.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		log.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		log.Fatal(err)
	}
}

func draw(label string, h *hist) {
	var peak int64 = 1
	for _, c := range h.counts {
		if c > peak {
			peak = c
		}
	}
	fmt.Printf("\n%s:\n", label)
	for b, c := range h.counts {
		bar := int(c * 48 / peak)
		fmt.Printf("  [%3d-%3d] %-48s %d\n", b*256/bins, (b+1)*256/bins-1, strings.Repeat("#", bar), c)
	}
}
