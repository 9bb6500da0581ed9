package conform

import (
	"context"
	"fmt"
	"testing"

	"anytime/internal/core"
)

// The runner-equivalence property: for a fixed seed and granularity, the
// per-update runner (Diffusive) and the batched runner (DiffusiveBatch)
// must produce the same publish sequence — one snapshot per round
// boundary, at the same processed counts, with the same buffer versions —
// and bit-identical final outputs. This is what licenses the core round
// loop's batched-checkpoint execution and the batched runner as pure
// optimizations: every observable of the anytime contract (version
// sequence, snapshot contents, final output) is pinned across execution
// strategies.
//
// The sweep uses PublishEveryRound: the demand and adaptive policies
// publish by wall-clock or reader timing and are deliberately
// non-deterministic across runs, so they cannot pin a version sequence.

// equivHash is a seeded splitmix64-style position hash, so every output
// element depends on both the seed and the position and accidental
// reorderings cannot cancel.
func equivHash(seed uint64, pos int) int32 {
	z := seed + uint64(pos)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int32(z ^ (z >> 31))
}

// equivPublish is one recorded publish opportunity: the processed count the
// snapshot saw and a checksum of the output array at that moment.
type equivPublish struct {
	processed int
	sum       uint64
}

// runEquivalence executes one diffusive pass of total updates writing
// equivHash values into a fresh output array, recording every publish. It
// returns the publish log, the final output, and the final buffer version.
func runEquivalence(t *testing.T, total, granularity int, seed uint64, batch bool) ([]equivPublish, []int32, core.Version) {
	t.Helper()
	outArr := make([]int32, total)
	var log []equivPublish
	snapshot := func(processed int) (int, error) {
		var sum uint64
		for _, v := range outArr {
			sum = sum*31 + uint64(uint32(v))
		}
		log = append(log, equivPublish{processed: processed, sum: sum})
		return processed, nil
	}
	cfg := core.RoundConfig{Granularity: granularity}
	out := core.NewBuffer[int]("out", nil)
	a := core.New()
	stage := func(c *core.Context) error {
		if batch {
			return core.DiffusiveBatch(c, out, total,
				func(lo, hi int) error {
					for pos := lo; pos < hi; pos++ {
						outArr[pos] = equivHash(seed, pos)
					}
					return nil
				},
				snapshot, cfg, true)
		}
		return core.Diffusive(c, out, total,
			func(pos int) error {
				outArr[pos] = equivHash(seed, pos)
				return nil
			},
			snapshot, cfg)
	}
	if err := a.AddStage("equiv", stage); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.Wait(); err != nil {
		t.Fatal(err)
	}
	snap, ok := out.Latest()
	if !ok || !snap.Final {
		t.Fatalf("no final snapshot (ok=%v snap=%+v)", ok, snap)
	}
	return log, outArr, snap.Version
}

// TestConformRunnerEquivalence quick-checks the equivalence across
// granularities (including non-dividing and degenerate ones), checking the
// batched runner against the per-update reference.
// Named TestConform* so the nightly `-run Conform` profile sweeps it.
func TestConformRunnerEquivalence(t *testing.T) {
	t.Parallel()
	const total = 4109 // prime: no granularity below divides it evenly
	for _, seed := range []uint64{1, 2, 3} {
		for _, granularity := range []int{1, 7, 64, 257, 1024, total} {
			ref, refOut, refVersion := runEquivalence(t, total, granularity, seed, false)
			if len(ref) == 0 || ref[len(ref)-1].processed != total {
				t.Fatalf("g=%d: reference log malformed: %v", granularity, ref)
			}
			if refVersion != core.Version(len(ref)) {
				t.Fatalf("g=%d: reference published %d times but final version is %d",
					granularity, len(ref), refVersion)
			}
			name := fmt.Sprintf("seed=%d g=%d batch", seed, granularity)
			log, outArr, version := runEquivalence(t, total, granularity, seed, true)
			if len(log) != len(ref) {
				t.Fatalf("%s: %d publishes, reference has %d", name, len(log), len(ref))
			}
			for i := range log {
				if log[i] != ref[i] {
					t.Fatalf("%s: publish %d is %+v, reference %+v", name, i, log[i], ref[i])
				}
			}
			if version != refVersion {
				t.Fatalf("%s: final version %d, reference %d", name, version, refVersion)
			}
			for pos := range outArr {
				if outArr[pos] != refOut[pos] {
					t.Fatalf("%s: output[%d] = %d, reference %d", name, pos, outArr[pos], refOut[pos])
				}
			}
		}
	}
}
