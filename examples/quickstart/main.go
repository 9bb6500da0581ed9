// Quickstart: the smallest useful anytime automaton.
//
// We compute the sum of a large data set as a diffusive anytime stage:
// elements are consumed in a pseudo-random order, and every snapshot is a
// population-weighted estimate of the final sum (paper §III-B2, input
// sampling on a non-idempotent reduction). The automaton guarantees the
// last snapshot is the exact sum — and we could have stopped at any of the
// earlier ones.
//
// Run:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"anytime"
)

func main() {
	const n = 1 << 20

	// The data set: anything indexable. Here, a deterministic sequence.
	values := make([]int64, n)
	var exact int64
	for i := range values {
		values[i] = int64((i*i)%1000 - 350)
		exact += values[i]
	}

	// A bijective pseudo-random visit order: unbiased sampling, and every
	// element is still consumed exactly once.
	ord, err := anytime.PseudoRandom(n, 42)
	if err != nil {
		log.Fatal(err)
	}

	// The reduction: one accumulator, copied and weighted at
	// each snapshot.
	sum := anytime.Reduce[int64]{
		NewAcc:  func() int64 { return 0 },
		Consume: func(acc int64, idx int) int64 { return acc + values[idx] },
		Merge:   func(dst, src int64) int64 { return dst + src },
		Snapshot: func(merged int64, processed, total int) (int64, error) {
			// Addition is not idempotent, so estimates are scaled by
			// population/sample size (the paper's O'_i = O_i x n/i).
			return anytime.ScaleCount(merged, processed, total), nil
		},
	}

	out := anytime.NewBuffer[int64]("sum", nil)
	out.OnPublish(func(s anytime.Snapshot[int64]) {
		errPct := 100 * math.Abs(float64(s.Value-exact)) / math.Abs(float64(exact))
		fmt.Printf("version %2d%s: estimate %14d  (error %6.3f%%)\n",
			s.Version, mark(s.Final), s.Value, errPct)
	})

	a := anytime.New()
	if err := a.AddStage("sum", func(c *anytime.Context) error {
		return anytime.RunReduce(c, sum, out, ord, anytime.RoundConfig{
			Granularity: n / 16, // 16 snapshots
		})
	}); err != nil {
		log.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		log.Fatal(err)
	}
	// We could Stop() whenever the estimate looks good enough; letting it
	// run guarantees the exact result.
	if err := a.Wait(); err != nil {
		log.Fatal(err)
	}
	final, _ := out.Latest()
	fmt.Printf("\nexact sum  %14d\nfinal snap %14d (final=%v)\n", exact, final.Value, final.Final)
}

func mark(final bool) string {
	if final {
		return " (precise)"
	}
	return "          "
}
