package pix

import (
	"math/rand"
	"testing"
)

// The publish-path benchmarks measure what a conv2d-shaped diffusive stage
// pays to publish its intermediate approximations: a 512×512 gray image
// filled in 2D tree order, snapshotted every 1/32 of the pass (the app's
// default granularity). Each op is one cold pass — snapshotter construction
// included, since a real stage builds one per run. SnapshotClone is the
// pre-tile behavior (a full HoldFill clone per round); SnapshotTiles is the
// zero-copy ring. Regenerate BENCH_publish_path.json from these (see
// README).

func benchPublishPath(b *testing.B, mode SnapshotMode) {
	b.Helper()
	const side = 512
	const rounds = 32
	working := MustNew(side, side, 1)
	rnd := rand.New(rand.NewSource(3))
	for i := range working.Pix {
		working.Pix[i] = int32(rnd.Intn(256))
	}
	order := fillTreeOrder(side, side)
	chunk := len(order) / rounds
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewSnapshotter(working, mode)
		if err != nil {
			b.Fatal(err)
		}
		for r := 0; r < rounds; r++ {
			lo := r * chunk
			hi := lo + chunk
			if r == rounds-1 {
				hi = len(order)
			}
			for _, idx := range order[lo:hi] {
				s.Mark(idx)
			}
			if _, err := s.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.SetBytes(int64(len(working.Pix) * 4))
}

func BenchmarkPublishPathClone(b *testing.B) { benchPublishPath(b, SnapshotClone) }
func BenchmarkPublishPathTiles(b *testing.B) { benchPublishPath(b, SnapshotTiles) }
