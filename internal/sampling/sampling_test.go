package sampling

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"anytime/internal/core"
	"anytime/internal/perm"
)

func runStage(t *testing.T, fn func(*core.Context) error) error {
	t.Helper()
	a := core.New()
	if err := a.AddStage("stage", fn); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	return a.Wait()
}

func TestMapComputesEveryOutputOnce(t *testing.T) {
	const n = 256
	ord, err := perm.Tree1D(n)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, n)
	out := core.NewBuffer[int]("out", nil)
	err = runStage(t, func(c *core.Context) error {
		return Map(c, out, ord,
			func(dst int) error { counts[dst]++; return nil },
			func(processed int) (int, error) { return processed, nil },
			core.RoundConfig{Granularity: 64})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range counts {
		if v != 1 {
			t.Errorf("output %d computed %d times", i, v)
		}
	}
	snap, ok := out.Latest()
	if !ok || !snap.Final || snap.Value != n {
		t.Errorf("final snapshot = %+v", snap)
	}
}

// TestMapTreePrefixIsLowResolution: halting an output-sampled map stage
// early must have filled a uniform low-resolution grid, which is the
// property that makes early snapshots recognizable images (Figure 5).
func TestMapTreePrefixIsLowResolution(t *testing.T) {
	const side = 16
	ord, err := perm.Tree2D(side, side)
	if err != nil {
		t.Fatal(err)
	}
	filled := make([]bool, side*side)
	fills := 0
	out := core.NewBuffer[int]("out", nil)
	stop := errors.New("halt")
	err = runStage(t, func(c *core.Context) error {
		return Map(c, out, ord,
			func(dst int) error {
				filled[dst] = true
				fills++
				if fills == 16 {
					return stop
				}
				return nil
			},
			func(processed int) (int, error) { return processed, nil },
			core.RoundConfig{Granularity: 16})
	})
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v", err)
	}
	// After exactly 16 fills of a 16x16 tree order, the 4x4 grid with
	// stride 4 must be complete.
	for r := 0; r < side; r += 4 {
		for c := 0; c < side; c += 4 {
			if !filled[r*side+c] {
				t.Errorf("low-res cell (%d,%d) unfilled after 16 samples", r, c)
			}
		}
	}
}

func sumReduce() Reduce[int64] {
	return Reduce[int64]{
		NewAcc:  func() int64 { return 0 },
		Consume: func(acc int64, idx int) int64 { return acc + int64(idx) },
		Merge:   func(dst, src int64) int64 { return dst + src },
		Snapshot: func(merged int64, processed, total int) (int64, error) {
			return ScaleCount(merged, processed, total), nil
		},
	}
}

func TestReduceExactFinalSum(t *testing.T) {
	const n = 4096
	ord, err := perm.PseudoRandom(n, 99)
	if err != nil {
		t.Fatal(err)
	}
	out := core.NewBuffer[int64]("sum", nil)
	err = runStage(t, func(c *core.Context) error {
		return sumReduce().Run(c, out, ord, core.RoundConfig{Granularity: 512})
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := out.Latest()
	if !ok || !snap.Final {
		t.Fatal("no final snapshot")
	}
	if snap.Value != int64(n)*(n-1)/2 {
		t.Errorf("final sum = %d, want %d", snap.Value, int64(n)*(n-1)/2)
	}
}

// TestReduceWeightedSnapshotsApproximateFinal: intermediate weighted
// snapshots of a sum over a pseudo-random order must approximate the true
// total (the paper's O'_i = O_i × n/i normalization), with error shrinking
// as the sample grows.
func TestReduceWeightedSnapshotsApproximateFinal(t *testing.T) {
	const n = 1 << 14
	ord, err := perm.PseudoRandom(n, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(int64(n) * (n - 1) / 2)
	var snaps []core.Snapshot[int64]
	out := core.NewBuffer[int64]("sum", nil)
	out.OnPublish(func(s core.Snapshot[int64]) { snaps = append(snaps, s) })
	err = runStage(t, func(c *core.Context) error {
		return sumReduce().Run(c, out, ord, core.RoundConfig{Granularity: n / 16})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 16 {
		t.Fatalf("got %d snapshots", len(snaps))
	}
	for i, s := range snaps {
		relErr := math.Abs(float64(s.Value)-want) / want
		// Early samples tolerate more estimator noise than late ones.
		tol := 0.25
		if i >= len(snaps)/2 {
			tol = 0.10
		}
		if relErr > tol {
			t.Errorf("snapshot %d: weighted estimate off by %.1f%%", i, relErr*100)
		}
	}
	if snaps[len(snaps)-1].Value != int64(want) {
		t.Error("final snapshot not exact")
	}
}

func TestReduceValidation(t *testing.T) {
	ord, _ := perm.Sequential(4)
	out := core.NewBuffer[int64]("sum", nil)
	bad := Reduce[int64]{} // all nil
	err := runStage(t, func(c *core.Context) error {
		return bad.Run(c, out, ord, core.RoundConfig{})
	})
	if err == nil {
		t.Error("nil-field Reduce accepted")
	}
}

func TestReduceEmptyOrder(t *testing.T) {
	ord, _ := perm.Sequential(0)
	out := core.NewBuffer[int64]("sum", nil)
	err := runStage(t, func(c *core.Context) error {
		return sumReduce().Run(c, out, ord, core.RoundConfig{})
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := out.Latest()
	if !ok || !snap.Final || snap.Value != 0 {
		t.Errorf("empty reduce snapshot = %+v", snap)
	}
}

// TestReduceIdempotentMax: idempotent operators need no weighting; check a
// max-reduction converges to the exact max and that early snapshots are
// lower bounds.
func TestReduceIdempotentMax(t *testing.T) {
	const n = 1024
	values := make([]int64, n)
	for i := range values {
		values[i] = int64((i * 2654435761) % 100000)
	}
	var wantMax int64
	for _, v := range values {
		if v > wantMax {
			wantMax = v
		}
	}
	maxReduce := Reduce[int64]{
		NewAcc: func() int64 { return math.MinInt64 },
		Consume: func(acc int64, idx int) int64 {
			if values[idx] > acc {
				return values[idx]
			}
			return acc
		},
		Merge: func(dst, src int64) int64 {
			if src > dst {
				return src
			}
			return dst
		},
		Snapshot: func(merged int64, processed, total int) (int64, error) { return merged, nil },
	}
	ord, err := perm.PseudoRandom(n, 31)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []int64
	out := core.NewBuffer[int64]("max", nil)
	out.OnPublish(func(s core.Snapshot[int64]) { snaps = append(snaps, s.Value) })
	err = runStage(t, func(c *core.Context) error {
		return maxReduce.Run(c, out, ord, core.RoundConfig{Granularity: 128})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i] < snaps[i-1] {
			t.Error("max reduction regressed between snapshots")
		}
	}
	if snaps[len(snaps)-1] != wantMax {
		t.Errorf("final max = %d, want %d", snaps[len(snaps)-1], wantMax)
	}
}

func TestScaleCount(t *testing.T) {
	if got := ScaleCount(50, 50, 100); got != 100 {
		t.Errorf("ScaleCount(50,50,100) = %d", got)
	}
	if got := ScaleCount(7, 100, 100); got != 7 {
		t.Errorf("full population scaled: %d", got)
	}
	if got := ScaleCount(7, 120, 100); got != 7 {
		t.Errorf("overfull population scaled: %d", got)
	}
	if got := ScaleCount(7, 0, 100); got != 0 {
		t.Errorf("zero processed: %d", got)
	}
	if got := ScaleCount(7, 10, 0); got != 7 {
		t.Errorf("zero total with processed>=total: %d", got)
	}
}

func TestScaleFloat(t *testing.T) {
	if got := ScaleFloat(5, 10, 100); got != 50 {
		t.Errorf("ScaleFloat = %v", got)
	}
	if got := ScaleFloat(5, 100, 100); got != 5 {
		t.Errorf("full population: %v", got)
	}
	if got := ScaleFloat(5, 0, 100); got != 0 {
		t.Errorf("zero processed: %v", got)
	}
}

// TestScaleCountUnbiasedProperty: scaling a half-sample of a uniform value
// reproduces the full-population total exactly.
func TestScaleCountUnbiasedProperty(t *testing.T) {
	f := func(rawV uint16, rawN uint8) bool {
		v := int64(rawV)
		n := int(rawN)%100 + 2
		half := n / 2
		if half == 0 {
			return true
		}
		// Accumulated v per element over half the population.
		got := ScaleCount(v*int64(half), half, n)
		want := v * int64(n)
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		return diff <= int64(v) // at most one element of rounding error
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
