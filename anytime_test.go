package anytime_test

// Integration tests exercising the public API exactly as a downstream user
// would: building automata from the facade package only.

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"anytime"
)

// TestPublicAPIDiffusiveReduce builds the paper's canonical input-sampling
// reduction (an anytime sum with population weighting) through the facade.
func TestPublicAPIDiffusiveReduce(t *testing.T) {
	const n = 10000
	values := make([]int64, n)
	var want int64
	for i := range values {
		values[i] = int64(i % 97)
		want += values[i]
	}
	ord, err := anytime.PseudoRandom(n, 7)
	if err != nil {
		t.Fatal(err)
	}
	sum := anytime.Reduce[int64]{
		NewAcc:  func() int64 { return 0 },
		Consume: func(acc int64, idx int) int64 { return acc + values[idx] },
		Merge:   func(dst, src int64) int64 { return dst + src },
		Snapshot: func(merged int64, processed, total int) (int64, error) {
			return anytime.ScaleCount(merged, processed, total), nil
		},
	}
	out := anytime.NewBuffer[int64]("sum", nil)
	a := anytime.New()
	if err := a.AddStage("sum", func(c *anytime.Context) error {
		return anytime.RunReduce(c, sum, out, ord, anytime.RoundConfig{Granularity: n / 8})
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	snap, ok := out.Latest()
	if !ok || !snap.Final || snap.Value != want {
		t.Errorf("final sum = %+v ok=%v, want %d", snap, ok, want)
	}
}

// TestPublicAPIPipelineWithInterrupt builds a two-stage async pipeline and
// interrupts it, checking the interruptibility contract end to end.
func TestPublicAPIPipelineWithInterrupt(t *testing.T) {
	const n = 1 << 14
	ord, err := anytime.Tree1D(n)
	if err != nil {
		t.Fatal(err)
	}
	squares := anytime.NewBuffer[[]int64]("squares", func(s []int64) []int64 {
		return append([]int64(nil), s...)
	})
	total := anytime.NewBuffer[int64]("total", nil)
	working := make([]int64, n)

	a := anytime.New()
	if err := a.AddStage("square", func(c *anytime.Context) error {
		return anytime.MapSample(c, squares, ord,
			func(dst int) error {
				working[dst] = int64(dst) * int64(dst)
				time.Sleep(time.Microsecond) // keep the run interruptible
				return nil
			},
			func(processed int) ([]int64, error) { return working, nil },
			anytime.RoundConfig{Granularity: n / 64})
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.AddStage("sum", func(c *anytime.Context) error {
		return anytime.AsyncConsume(c, squares, func(s anytime.Snapshot[[]int64]) error {
			var acc int64
			for _, v := range s.Value {
				acc += v
			}
			_, err := total.Publish(acc, s.Final)
			return err
		})
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Wait for at least one whole-application output, then interrupt.
	if _, err := total.WaitNewer(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	a.Stop()
	if err := a.Wait(); err != nil && !errors.Is(err, anytime.ErrStopped) {
		t.Fatalf("Wait = %v", err)
	}
	if _, ok := total.Latest(); !ok {
		t.Error("no approximate output after interrupt")
	}
}

// TestPublicAPISyncPipeline folds a distributive consumer over a diffusive
// producer's update stream via the facade.
func TestPublicAPISyncPipeline(t *testing.T) {
	stream, err := anytime.NewStream[int](2)
	if err != nil {
		t.Fatal(err)
	}
	out := anytime.NewBuffer[int]("out", nil)
	a := anytime.New()
	if err := a.AddStage("f", func(c *anytime.Context) error {
		for i := 1; i <= 10; i++ {
			u := anytime.Update[int]{Seq: i, Data: i, Last: i == 10}
			if err := stream.Send(c, u); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.AddStage("g", func(c *anytime.Context) error {
		acc := 0
		return anytime.SyncConsume(c, stream, func(u anytime.Update[int]) error {
			acc += u.Data
			_, err := out.Publish(acc, u.Last)
			return err
		})
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	snap, _ := out.Latest()
	if snap.Value != 55 || !snap.Final {
		t.Errorf("sync pipeline output = %+v", snap)
	}
}

// TestPublicAPIImageAndMetrics drives the image helpers and SNR through the
// facade: a tree-sampled identity map must converge to the input with
// rising SNR.
func TestPublicAPIImageAndMetrics(t *testing.T) {
	const side = 32
	in, err := anytime.SyntheticGray(side, side, 5)
	if err != nil {
		t.Fatal(err)
	}
	ord, err := anytime.Tree2D(side, side)
	if err != nil {
		t.Fatal(err)
	}
	working, err := anytime.NewGrayImage(side, side)
	if err != nil {
		t.Fatal(err)
	}
	filled := make([]bool, side*side)
	out := anytime.NewBuffer[*anytime.Image]("img", nil)
	var snrs []float64
	out.OnPublish(func(s anytime.Snapshot[*anytime.Image]) {
		db, err := anytime.SNR(in.Pix, s.Value.Pix)
		if err != nil {
			t.Error(err)
			return
		}
		snrs = append(snrs, db)
	})
	a := anytime.New()
	if err := a.AddStage("copy", func(c *anytime.Context) error {
		return anytime.MapSample(c, out, ord,
			func(dst int) error {
				working.Pix[dst] = in.Pix[dst]
				filled[dst] = true
				return nil
			},
			func(processed int) (*anytime.Image, error) {
				return anytime.HoldFill(working, filled)
			},
			anytime.RoundConfig{Granularity: side * side / 8})
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(snrs) != 8 {
		t.Fatalf("%d snapshots", len(snrs))
	}
	if !math.IsInf(snrs[len(snrs)-1], 1) {
		t.Errorf("final SNR %v", snrs[len(snrs)-1])
	}
	if snrs[0] < 5 {
		t.Errorf("first snapshot SNR %v; hold-fill rendering broken", snrs[0])
	}
	if anytime.FormatDB(snrs[len(snrs)-1]) != "inf" {
		t.Error("FormatDB(inf) wrong")
	}
}

// TestPublicAPIPauseResume verifies the pause gate through the facade.
func TestPublicAPIPauseResume(t *testing.T) {
	out := anytime.NewBuffer[int]("out", nil)
	a := anytime.New()
	if err := a.AddStage("s", func(c *anytime.Context) error {
		return anytime.Diffusive(c, out, 1000,
			func(pos int) error { time.Sleep(50 * time.Microsecond); return nil },
			func(processed int) (int, error) { return processed, nil },
			anytime.RoundConfig{Granularity: 10})
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := out.WaitNewer(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	a.Pause()
	time.Sleep(5 * time.Millisecond)
	v1, _ := out.Latest()
	time.Sleep(20 * time.Millisecond)
	v2, _ := out.Latest()
	if v2.Version > v1.Version+1 {
		t.Errorf("buffer advanced from %d to %d while paused", v1.Version, v2.Version)
	}
	a.Resume()
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	if snap, _ := out.Latest(); !snap.Final || snap.Value != 1000 {
		t.Errorf("final = %+v", snap)
	}
}
