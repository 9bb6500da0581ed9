package core

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// The model's overheads in isolation: publish cost, snapshot read cost,
// and the per-update overhead of the diffusive runners (the quantity that
// decides whether an application needs DiffusiveBatch).

func BenchmarkBufferPublish(b *testing.B) {
	buf := NewBuffer[int]("b", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := buf.Publish(i, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBufferPublishWithClone(b *testing.B) {
	data := make([]int, 1024)
	buf := NewBuffer("b", func(s []int) []int { return append([]int(nil), s...) })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := buf.Publish(data, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBufferLatest(b *testing.B) {
	buf := NewBuffer[int]("b", nil)
	if _, err := buf.Publish(1, false); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := buf.Latest(); !ok {
			b.Fatal("no snapshot")
		}
	}
}

// benchDiffusive measures the runner's per-update orchestration overhead
// for the dominant serving-path shape: a map-style kernel that computes
// one output element per update (conv2d, debayer, histeq's apply stage all
// have this form). The apply body is a single store into the update's own
// output slot, so everything else on the profile is the round loop, worker
// dispatch, and publish machinery — and because each worker's round span
// is contiguous and cache-line-aligned, multi-worker runs write disjoint
// line sets (the strided division used to shear every line across all
// workers). The output array is verified after the timed loop: a runner
// that drops or misroutes updates fails instead of benchmarking garbage.
func benchDiffusive(b *testing.B, workers int, batch bool) {
	b.Helper()
	const total = 1 << 16
	outArr := make([]int32, total)
	snapshot := func(processed int) (int, error) { return processed, nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := NewBuffer[int]("out", nil)
		a := New()
		stage := func(c *Context) error {
			if batch {
				return DiffusiveBatch(c, out, total,
					func(worker, lo, hi int) error {
						for pos := lo; pos < hi; pos++ {
							outArr[pos] = int32(pos)
						}
						return nil
					},
					snapshot,
					RoundConfig{Granularity: total / 8, Workers: workers}, true)
			}
			return DiffusiveWorkers(c, out, total,
				func(worker, pos int) error { outArr[pos] = int32(pos); return nil },
				snapshot,
				RoundConfig{Granularity: total / 8, Workers: workers})
		}
		if err := a.AddStage("d", stage); err != nil {
			b.Fatal(err)
		}
		if err := a.Start(context.Background()); err != nil {
			b.Fatal(err)
		}
		if err := a.Wait(); err != nil {
			b.Fatal(err)
		}
		if snap, ok := out.Latest(); !ok || !snap.Final || snap.Value != total {
			b.Fatalf("final snapshot = %+v, want %d", snap, total)
		}
	}
	b.StopTimer()
	b.SetBytes(total)
	for pos, v := range outArr {
		if v != int32(pos) {
			b.Fatalf("output[%d] = %d after final run; updates dropped or misrouted", pos, v)
		}
	}
}

// The worker sweep: NW splits each round into N spans run in order on the
// stage goroutine, so every row should cost what 1W costs and allocate the
// same. A gap means per-span or per-round overhead, such as a goroutine
// per round, which once made 4W slower than 1W.
func BenchmarkDiffusivePerUpdate(b *testing.B)      { benchDiffusive(b, 1, false) }
func BenchmarkDiffusivePerUpdate2W(b *testing.B)    { benchDiffusive(b, 2, false) }
func BenchmarkDiffusivePerUpdate4W(b *testing.B)    { benchDiffusive(b, 4, false) }
func BenchmarkDiffusivePerUpdate8W(b *testing.B)    { benchDiffusive(b, 8, false) }
func BenchmarkDiffusiveBatchPerUpdate(b *testing.B) { benchDiffusive(b, 1, true) }
func BenchmarkDiffusiveBatchPerUpdate4W(b *testing.B) {
	benchDiffusive(b, 4, true)
}

// benchPartial is one worker's private accumulator, padded to a cache
// line — the thread-privatized-partials pattern DiffusiveWorkers documents
// (§IV-A2), merged by snapshot at round quiescence.
type benchPartial struct {
	sum int64
	_   [56]byte
}

// BenchmarkDiffusiveReducePerUpdate is the reduce-shaped counterpart: each
// update folds into its worker's partial, so every update carries a
// load-add-store dependence on the previous one through the accumulator
// cell. That serial chain, not the runner, is this variant's floor —
// reduce kernels that care should accumulate locally per batch span
// (DiffusiveBatch), which BenchmarkDiffusiveBatchPerUpdate measures.
func BenchmarkDiffusiveReducePerUpdate(b *testing.B) {
	const total = 1 << 16
	const want = int64(total) * (total - 1) / 2
	parts := make([]benchPartial, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parts[0].sum = 0
		out := NewBuffer[int64]("out", nil)
		a := New()
		if err := a.AddStage("d", func(c *Context) error {
			return DiffusiveWorkers(c, out, total,
				func(worker, pos int) error { parts[worker].sum += int64(pos); return nil },
				func(processed int) (int64, error) { return parts[0].sum, nil },
				RoundConfig{Granularity: total / 8})
		}); err != nil {
			b.Fatal(err)
		}
		if err := a.Start(context.Background()); err != nil {
			b.Fatal(err)
		}
		if err := a.Wait(); err != nil {
			b.Fatal(err)
		}
		if snap, ok := out.Latest(); !ok || snap.Value != want {
			b.Fatalf("final sum = %+v, want %d", snap, want)
		}
	}
	b.SetBytes(total)
}

// benchContext returns a stage context over a running (open) gate, the
// state every Checkpoint call sees in an unpaused pipeline.
func benchContext(h *Hooks) *Context {
	return &Context{ctx: context.Background(), a: New(), name: "bench", hooks: h}
}

// BenchmarkCheckpointUnhooked is the hot path with no registry attached —
// the cost every existing pipeline pays for the telemetry layer existing.
func BenchmarkCheckpointUnhooked(b *testing.B) {
	c := benchContext(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := c.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointHooked is the same path with a minimal hook attached —
// the floor any real telemetry binding builds on.
func BenchmarkCheckpointHooked(b *testing.B) {
	var n atomic.Int64
	c := benchContext(&Hooks{Checkpoint: func(string, time.Duration) { n.Add(1) }})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := c.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBufferLatestParallel hammers Latest from every P at once: with
// the wait-free read path these loads scale instead of serializing on a
// publisher mutex.
func BenchmarkBufferLatestParallel(b *testing.B) {
	buf := NewBuffer[int]("b", nil)
	if _, err := buf.Publish(1, false); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, ok := buf.Latest(); !ok {
				b.Fatal("no snapshot")
			}
		}
	})
}

func BenchmarkBufferDemanded(b *testing.B) {
	buf := NewBuffer[int]("b", nil)
	if _, err := buf.Publish(1, false); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Demanded()
	}
}

func BenchmarkWaitNewerHot(b *testing.B) {
	buf := NewBuffer[int]("b", nil)
	if _, err := buf.Publish(1, false); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := buf.WaitNewer(ctx, 0); err != nil {
			b.Fatal(err)
		}
	}
}
