package core

import (
	"context"
	"runtime"
	"testing"
)

// The per-update alloc budget guard. The serving path's per-update runner
// allocates only at pass setup (buffer, automaton, stage); rounds run on
// the stage goroutine, so per-round costs are allocation-free at any
// GOMAXPROCS. These tests pin that property numerically so a regression
// reintroducing per-round allocations (an early runner spawned goroutines
// every round: 111 allocs/op at 4 workers) fails CI's kernel bench + alloc
// budget step. The budget is 2× the measured post-rewrite count, so
// routine runtime drift doesn't trip it but a per-round leak (which
// multiplies by the round count, 8 here) immediately does.

// allocGuardTotal matches BenchmarkDiffusivePerUpdate's workload: 8 rounds
// of total/8 updates through the per-update runner.
const allocGuardTotal = 1 << 16

// measuredPerUpdateAllocs is the pinned allocs per pass (BENCH_kernels.json).
const measuredPerUpdateAllocs = 20

func runPerUpdatePass(t *testing.T, outArr []int32) {
	t.Helper()
	out := NewBuffer[int]("out", nil)
	a := New()
	err := a.AddStage("d", func(c *Context) error {
		return Diffusive(c, out, allocGuardTotal,
			func(pos int) error { outArr[pos] = int32(pos); return nil },
			func(processed int) (int, error) { return processed, nil },
			RoundConfig{Granularity: allocGuardTotal / 8})
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

func allocsPerPass(t *testing.T) float64 {
	t.Helper()
	outArr := make([]int32, allocGuardTotal)
	runPerUpdatePass(t, outArr) // warm up lazy runtime state
	const runs = 50
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		runPerUpdatePass(t, outArr)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs
}

// checkAllocBudget fails t if a per-update pass, run with procs Ps,
// allocates more than twice the pinned count.
func checkAllocBudget(t *testing.T, procs int) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	if got := allocsPerPass(t); got > 2*measuredPerUpdateAllocs {
		t.Fatalf("per-update pass at GOMAXPROCS %d allocates %.1f times, budget is %d (2x the pinned %d)",
			procs, got, 2*measuredPerUpdateAllocs, measuredPerUpdateAllocs)
	}
}

// TestPerUpdateAllocBudget1W guards the per-update pass on one worker
// thread (GOMAXPROCS 1).
func TestPerUpdateAllocBudget1W(t *testing.T) { checkAllocBudget(t, 1) }

// TestPerUpdateAllocBudget4W guards the same pass with four worker threads
// (GOMAXPROCS 4), where the early runner's per-round goroutines cost 111
// allocs/op.
func TestPerUpdateAllocBudget4W(t *testing.T) { checkAllocBudget(t, 4) }
