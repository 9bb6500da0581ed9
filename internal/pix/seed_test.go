package pix

import (
	"strings"
	"testing"
)

// seedWorking builds a 64x64 gray snapshotter whose working image holds a
// recognizable "cached approximation" (value 100 everywhere).
func seedWorking(t *testing.T, mode SnapshotMode) (*Snapshotter, *Image) {
	t.Helper()
	working := MustNew(64, 64, 1)
	working.Fill(100)
	s, err := NewSnapshotter(working, mode)
	if err != nil {
		t.Fatal(err)
	}
	return s, working
}

func TestSnapshotterSeedTrustsWorking(t *testing.T) {
	for _, mode := range []SnapshotMode{SnapshotClone, SnapshotTiles} {
		s, working := seedWorking(t, mode)
		if err := s.Seed(nil); err != nil {
			t.Fatal(err)
		}
		if !s.Seeded() {
			t.Fatal("Seeded() = false after Seed")
		}
		// No pixels computed yet: the snapshot must present the cached
		// approximation, not an ancestor hold-fill of stale values.
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Gray(63, 63) != 100 || snap.Gray(0, 0) != 100 {
			t.Fatalf("mode %v: seeded snapshot lost the cached values: corners %d %d",
				mode, snap.Gray(0, 0), snap.Gray(63, 63))
		}
		// A recomputed pixel overrides the cache.
		working.SetGray(40, 40, 7)
		s.Mark(40*64 + 40)
		snap, err = s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Gray(40, 40) != 7 {
			t.Fatalf("mode %v: recomputed pixel = %d, want 7", mode, snap.Gray(40, 40))
		}
		if snap.Gray(0, 0) != 100 {
			t.Fatalf("mode %v: cached pixel lost after a mark: %d", mode, snap.Gray(0, 0))
		}
		// Reset drops the seed: back to hold-fill semantics.
		s.Reset()
		if s.Seeded() {
			t.Fatalf("mode %v: Seeded() = true after Reset", mode)
		}
	}
}

func TestSnapshotterSeedStaleTilesHoldFill(t *testing.T) {
	s, working := seedWorking(t, SnapshotClone)
	g := NewTileGrid(64, 64, 1) // 2x2 tiles
	stale := NewDirtyTiles(g)
	stale.Mark(3) // bottom-right tile: cache not trusted there
	if err := s.Seed(stale); err != nil {
		t.Fatal(err)
	}
	// Fill the tree root so stale pixels have an ancestor to inherit.
	working.SetGray(0, 0, 55)
	s.Mark(0)
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Gray(1, 1) != 100 {
		t.Fatalf("trusted tile pixel = %d, want cached 100", snap.Gray(1, 1))
	}
	if snap.Gray(40, 40) != 55 {
		t.Fatalf("stale tile pixel = %d, want ancestor hold-fill 55", snap.Gray(40, 40))
	}
}

func TestSnapshotterSeedGridMismatch(t *testing.T) {
	s, _ := seedWorking(t, SnapshotClone)
	wrong := NewDirtyTiles(NewTileGrid(32, 32, 1))
	err := s.Seed(wrong)
	if err == nil || !strings.Contains(err.Error(), "grid") {
		t.Fatalf("Seed with mismatched grid = %v, want grid error", err)
	}
}

func TestSnapshotterSeedTilesModeInvalidatesRing(t *testing.T) {
	s, working := seedWorking(t, SnapshotTiles)
	// Simulate a previous run: publish once so ring members hold old pixels.
	working.SetGray(0, 0, 9)
	s.Mark(0)
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	// New warm run over refreshed working content.
	working.Fill(200)
	if err := s.Seed(nil); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range snap.Pix {
		if v != 200 {
			t.Fatalf("ring pixel %d = %d leaked from previous run, want 200", i, v)
		}
	}
}

func TestDirtyTilesDilate(t *testing.T) {
	g := NewTileGrid(128, 128, 1) // 4x4 tiles
	d := NewDirtyTiles(g)
	d.Mark(5) // tile (1,1)
	d.Dilate()
	if d.Count() != 9 {
		t.Fatalf("dilated interior tile count = %d, want 9", d.Count())
	}
	for _, tile := range []int{0, 1, 2, 4, 5, 6, 8, 9, 10} {
		if !d.Has(tile) {
			t.Errorf("tile %d missing from dilation", tile)
		}
	}
	// Corner tiles clip at the grid edge.
	d = NewDirtyTiles(g)
	d.Mark(0)
	d.Dilate()
	if d.Count() != 4 {
		t.Fatalf("dilated corner count = %d, want 4", d.Count())
	}
	// MarkAll stays all.
	d.MarkAll()
	d.Dilate()
	if d.Count() != g.Tiles() {
		t.Fatalf("dilate after MarkAll = %d tiles", d.Count())
	}
}

func TestTileDiff(t *testing.T) {
	a := MustNew(64, 64, 1)
	b := a.Clone()
	d, err := TileDiff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d.Any() {
		t.Fatal("identical images produced a non-empty diff")
	}
	b.SetGray(40, 10, 1) // tile (1,0) of the 2x2 grid
	d, err = TileDiff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d.Count() != 1 || !d.Has(1) {
		t.Fatalf("diff = %d tiles (has(1)=%v), want exactly tile 1", d.Count(), d.Has(1))
	}
	// Geometry mismatch is an error.
	c := MustNew(32, 64, 1)
	if _, err := TileDiff(a, c); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
	if _, err := TileDiff(nil, a); err == nil {
		t.Fatal("nil image accepted")
	}
}

func TestAsSeedFrame(t *testing.T) {
	img := MustNew(64, 64, 1)
	got, stale, err := AsSeedFrame(img, 64, 64, 1)
	if err != nil || got != img || stale != nil {
		t.Fatalf("bare image: %v %v %v", got, stale, err)
	}
	d := NewDirtyTiles(NewTileGrid(64, 64, 1))
	got, stale2, err := AsSeedFrame(&SeedFrame{Image: img, Stale: d}, 64, 64, 1)
	if err != nil || got != img || stale2 != d {
		t.Fatalf("seed frame: %v %v %v", got, stale2, err)
	}
	if _, _, err := AsSeedFrame(img, 32, 32, 1); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
	if _, _, err := AsSeedFrame("nope", 64, 64, 1); err == nil {
		t.Fatal("wrong payload type accepted")
	}
	if _, _, err := AsSeedFrame((*SeedFrame)(nil), 64, 64, 1); err == nil {
		t.Fatal("nil seed frame accepted")
	}
	if _, _, err := AsSeedFrame(&SeedFrame{}, 64, 64, 1); err == nil {
		t.Fatal("seed frame without image accepted")
	}
}
