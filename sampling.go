package anytime

import (
	"anytime/internal/perm"
	"anytime/internal/sampling"
)

// Order is a bijective visit order of the index set [0, n): the sampling
// permutations of §III-B2. Every order visits each index exactly once,
// which is what guarantees that a diffusive stage eventually reaches the
// precise output.
type Order = perm.Order

// Stripe is one worker's share of an Order under the block-cyclic
// division (§IV-C1): contiguous cache-line-aligned runs of perm.RunLen
// positions, dealt to workers in round-robin run order.
type Stripe = perm.Stripe

// LFSR is a maximal-length linear-feedback shift register, the
// deterministic generator behind pseudo-random sampling.
type LFSR = perm.LFSR

// Sequential returns the identity order p(i) = i, suited to
// priority-ordered data.
func Sequential(n int) (Order, error) { return perm.Sequential(n) }

// ReverseSequential returns the descending order p(i) = n-1-i.
func ReverseSequential(n int) (Order, error) { return perm.ReverseSequential(n) }

// Tree1D returns the one-dimensional bit-reverse ("tree") order of paper
// Figure 4: sampled resolution doubles as each level completes.
func Tree1D(n int) (Order, error) { return perm.Tree1D(n) }

// Tree2D returns the two-dimensional tree order of paper Figure 5 over a
// rows x cols grid, yielding linear row-major indices.
func Tree2D(rows, cols int) (Order, error) { return perm.Tree2D(rows, cols) }

// TreeND returns the N-dimensional tree order over the given grid.
func TreeND(dims ...int) (Order, error) { return perm.TreeND(dims...) }

// PseudoRandom returns the LFSR-generated pseudo-random order recommended
// for unordered data sets (paper Figure 3).
func PseudoRandom(n int, seed uint64) (Order, error) { return perm.PseudoRandom(n, seed) }

// NewLFSR returns a maximal-length LFSR of the given width (2..32 bits).
func NewLFSR(bits uint, seed uint64) (*LFSR, error) { return perm.NewLFSR(bits, seed) }

// MapSample runs an output-sampled diffusive map stage: output element
// ord.At(i) is computed at step i, and snapshot publishes the current
// approximation (paper §III-B2, output sampling).
func MapSample[T any](c *Context, out *Buffer[T], ord Order, apply func(dst int) error, snapshot func(processed int) (T, error), cfg RoundConfig) error {
	return sampling.Map(c, out, ord, apply, snapshot, cfg)
}

// Reduce describes an input-sampled commutative reduction into an
// accumulator (paper §III-B2, input sampling).
type Reduce[A any] = sampling.Reduce[A]

// RunReduce executes the reduction as a diffusive anytime stage over the
// given visit order.
func RunReduce[A any](c *Context, r Reduce[A], out *Buffer[A], ord Order, cfg RoundConfig) error {
	return r.Run(c, out, ord, cfg)
}

// ScaleCount applies the paper's population weighting O'_i = O_i x n/i for
// non-idempotent integer reductions.
func ScaleCount(v int64, processed, total int) int64 {
	return sampling.ScaleCount(v, processed, total)
}

// ScaleFloat is ScaleCount for floating-point accumulators.
func ScaleFloat(v float64, processed, total int) float64 {
	return sampling.ScaleFloat(v, processed, total)
}
