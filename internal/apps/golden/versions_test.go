package golden

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"anytime/internal/apps/conv2d"
	"anytime/internal/apps/debayer"
	"anytime/internal/apps/kmeans"
	"anytime/internal/core"
	"anytime/internal/pix"
)

// The recorded version-stream digests: every published (version, final,
// image) of a run, folded in publish order. Unlike the final-output goldens
// of golden_test.go they pin each intermediate approximation too, so a
// refactoring of the diffusive round loop, the snapshotter or an app's
// update order that moves any published pixel of any version shows up here.
const (
	goldenVersionsConv2D  = "28503e0a9aac25811b9f13b8236005d918f5cef8ce60ef6f44ec37b2fbafd6fd"
	goldenVersionsDebayer = "e2c78a373e7a697c74c71efb9fa868ca76305df08f4ffaf635ec5a8558c11151"
	goldenVersionsKmeans  = "49deca808ba7eb865e1ce51a2a732fe5a7a9514d4a2775c04d6687a919aa0f4f"
)

// versionStream folds every snapshot published to out into a running
// digest. It hashes inside the OnPublish observer, on the stage goroutine,
// so tile-ring images (which the next publish recycles) are never retained.
type versionStream struct {
	h     hash.Hash
	count int
}

func observeVersions(out *core.Buffer[*pix.Image]) *versionStream {
	s := &versionStream{h: sha256.New()}
	out.OnPublish(func(snap core.Snapshot[*pix.Image]) {
		var hdr [9]byte
		binary.LittleEndian.PutUint64(hdr[:8], uint64(snap.Version))
		if snap.Final {
			hdr[8] = 1
		}
		s.h.Write(hdr[:])
		s.h.Write([]byte(hashImage(snap.Value)))
		s.count++
	})
	return s
}

func (s *versionStream) digest() string { return hex.EncodeToString(s.h.Sum(nil)) }

// TestGoldenVersions pins the whole published version stream of the three
// image apps built on diffusive sampling stages, at 96×96 with seed 7, for
// every worker count and both snapshot modes: the stream must be the same
// under all of them.
func TestGoldenVersions(t *testing.T) {
	gray, err := pix.SyntheticGray(96, 96, 7)
	if err != nil {
		t.Fatal(err)
	}
	rgb, err := pix.SyntheticRGB(96, 96, 7)
	if err != nil {
		t.Fatal(err)
	}
	mosaic, err := pix.BayerGRBG(rgb)
	if err != nil {
		t.Fatal(err)
	}
	type built struct {
		a   *core.Automaton
		out *core.Buffer[*pix.Image]
	}
	apps := []struct {
		name  string
		want  string
		build func(workers int, mode pix.SnapshotMode) (built, error)
	}{
		{"conv2d", goldenVersionsConv2D, func(w int, m pix.SnapshotMode) (built, error) {
			r, err := conv2d.New(gray, conv2d.Config{Workers: w, Snapshot: m})
			if err != nil {
				return built{}, err
			}
			return built{r.Automaton, r.Out}, nil
		}},
		{"debayer", goldenVersionsDebayer, func(w int, m pix.SnapshotMode) (built, error) {
			r, err := debayer.New(mosaic, debayer.Config{Workers: w, Snapshot: m})
			if err != nil {
				return built{}, err
			}
			return built{r.Automaton, r.Out}, nil
		}},
		{"kmeans", goldenVersionsKmeans, func(w int, m pix.SnapshotMode) (built, error) {
			r, err := kmeans.New(rgb, kmeans.Config{Workers: w, Snapshot: m})
			if err != nil {
				return built{}, err
			}
			return built{r.Automaton, r.Out}, nil
		}},
	}
	for _, app := range apps {
		for _, workers := range []int{1, 2, 4} {
			for _, mode := range []pix.SnapshotMode{pix.SnapshotClone, pix.SnapshotTiles} {
				b, err := app.build(workers, mode)
				if err != nil {
					t.Fatal(err)
				}
				s := observeVersions(b.out)
				if err := b.a.Start(context.Background()); err != nil {
					t.Fatal(err)
				}
				if err := b.a.Wait(); err != nil {
					t.Fatal(err)
				}
				if got := s.digest(); got != app.want {
					t.Errorf("%s workers=%d mode=%d: version-stream digest over %d versions changed:\n  got  %s\n  want %s",
						app.name, workers, mode, s.count, got, app.want)
				}
			}
		}
	}
}
