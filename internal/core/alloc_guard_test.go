package core

import (
	"context"
	"runtime"
	"testing"
)

// The per-update alloc budget guard. The serving path's per-update runner
// allocates only at pass setup (buffer, automaton, stage); every worker's
// span runs on the stage goroutine, so per-round costs are allocation-free
// at any worker count and any GOMAXPROCS. These tests pin that property
// numerically so a regression reintroducing per-round allocations (an
// early runner spawned goroutines every round: 111 allocs/op at 4W) fails
// CI's kernel bench + alloc budget step. The budgets are 2× the measured post-rewrite counts, so routine
// runtime drift doesn't trip them but a per-round leak (which multiplies
// by the round count, 8 here) immediately does.

// allocGuardTotal matches BenchmarkDiffusivePerUpdate's workload: 8 rounds
// of total/8 updates through the per-update runner.
const allocGuardTotal = 1 << 16

// measuredPerUpdateAllocs are the pinned allocs per pass
// (BENCH_kernels.json): 20 at both 1 and 4 workers, since extra workers
// only add spans to each round.
var measuredPerUpdateAllocs = map[int]float64{1: 20, 4: 20}

func runPerUpdatePass(t *testing.T, outArr []int32, workers int) {
	t.Helper()
	out := NewBuffer[int]("out", nil)
	a := New()
	err := a.AddStage("d", func(c *Context) error {
		return DiffusiveWorkers(c, out, allocGuardTotal,
			func(worker, pos int) error { outArr[pos] = int32(pos); return nil },
			func(processed int) (int, error) { return processed, nil },
			RoundConfig{Granularity: allocGuardTotal / 8, Workers: workers})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
}

func allocsPerPass(t *testing.T, workers int) float64 {
	t.Helper()
	outArr := make([]int32, allocGuardTotal)
	runPerUpdatePass(t, outArr, workers) // warm up lazy runtime state
	const runs = 50
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		runPerUpdatePass(t, outArr, workers)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs
}

// checkAllocBudget fails t if a per-update pass at the given worker count
// allocates more than twice its pinned count.
func checkAllocBudget(t *testing.T, workers int) {
	t.Helper()
	pinned := measuredPerUpdateAllocs[workers]
	if got := allocsPerPass(t, workers); got > 2*pinned {
		t.Fatalf("per-update pass at %d workers allocates %.1f times, budget is %.0f (2x the pinned %.0f)",
			workers, got, 2*pinned, pinned)
	}
}

// TestPerUpdateAllocBudget1W guards the single-worker per-update path.
func TestPerUpdateAllocBudget1W(t *testing.T) { checkAllocBudget(t, 1) }

// TestPerUpdateAllocBudget4W guards the multi-worker path, the one that
// used to cost 111 allocs/op.
func TestPerUpdateAllocBudget4W(t *testing.T) { checkAllocBudget(t, 4) }
