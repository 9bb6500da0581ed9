// Interactive: "hold-the-power-button computing" (paper §I).
//
// The paper imagines holding the enter key for as much precision as you
// want. This example plays that scenario: an image-sharpening automaton
// runs while a simulated user watches the output quality; the user pauses
// to inspect, resumes, and releases the button (stops) as soon as the
// output crosses their personal acceptability bar — which no profiler
// could have known in advance. The time and energy spent are governed
// directly by the acceptability of the output.
//
// Run:
//
//	go run ./examples/interactive [-accept 25] [-size 256]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"time"

	"anytime"
)

func main() {
	accept := flag.Float64("accept", 25, "user's acceptability bar in dB (use a huge value to wait for precise)")
	size := flag.Int("size", 256, "image side length")
	flag.Parse()
	if err := run(*accept, *size); err != nil {
		log.Fatal(err)
	}
}

func run(acceptDB float64, side int) error {
	in, err := anytime.SyntheticGray(side, side, 77)
	if err != nil {
		return err
	}
	n := side * side
	ord, err := anytime.Tree2D(side, side)
	if err != nil {
		return err
	}

	// Precise reference, so the "user" can judge quality. (A real user
	// judges by eye; SNR stands in for their eyes here.)
	ref, err := anytime.NewGrayImage(side, side)
	if err != nil {
		return err
	}
	for p := 0; p < n; p++ {
		ref.Pix[p] = sharpen(in, p%side, p/side)
	}

	working, err := anytime.NewGrayImage(side, side)
	if err != nil {
		return err
	}
	filled := make([]bool, n)
	out := anytime.NewBuffer[*anytime.Image]("sharpened", nil)

	a := anytime.New()
	if err := a.AddStage("sharpen", func(c *anytime.Context) error {
		return anytime.MapSample(c, out, ord,
			func(dst int) error {
				working.Pix[dst] = sharpen(in, dst%side, dst/side)
				filled[dst] = true
				return nil
			},
			func(processed int) (*anytime.Image, error) {
				return anytime.HoldFill(working, filled)
			},
			anytime.RoundConfig{Granularity: n / 64})
	}); err != nil {
		return err
	}

	start := time.Now()
	if err := a.Start(context.Background()); err != nil {
		return err
	}
	fmt.Printf("user holds the button (acceptability bar: %.1f dB)...\n", acceptDB)

	var last anytime.Version
	paused := false
	for {
		snap, err := out.WaitNewer(context.Background(), last)
		if err != nil {
			return err
		}
		last = snap.Version
		db, err := anytime.SNR(ref.Pix, snap.Value.Pix)
		if err != nil {
			return err
		}
		fmt.Printf("  %8v  version %3d  quality %s dB\n",
			time.Since(start).Round(time.Millisecond), snap.Version, anytime.FormatDB(db))

		// Halfway to the bar, the user pauses to take a closer look:
		// published output stays readable, no compute is spent.
		if !paused && db >= acceptDB/2 {
			paused = true
			a.Pause()
			fmt.Println("  user pauses to inspect the output (automaton frozen, output valid)")
			time.Sleep(30 * time.Millisecond)
			inspect, _ := out.Latest()
			fmt.Printf("  inspected version %d while paused; resuming\n", inspect.Version)
			a.Resume()
		}
		if db >= acceptDB || snap.Final {
			fmt.Println("user releases the button.")
			a.Stop()
			break
		}
	}
	if err := a.Wait(); err != nil && !errors.Is(err, anytime.ErrStopped) {
		return err
	}
	final, _ := out.Latest()
	db, err := anytime.SNR(ref.Pix, final.Value.Pix)
	if err != nil {
		return err
	}
	fmt.Printf("delivered version %d at %s dB after %v (precise=%v)\n",
		final.Version, anytime.FormatDB(db), time.Since(start).Round(time.Millisecond), final.Final)
	return nil
}

// sharpen applies a clamped 3x3 unsharp kernel at (x, y).
func sharpen(im *anytime.Image, x, y int) int32 {
	center := im.Gray(x, y)
	var sum int32
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			xx, yy := clamp(x+dx, im.W), clamp(y+dy, im.H)
			sum += im.Gray(xx, yy)
		}
	}
	v := center + (center - (sum+4)/9)
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return v
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
