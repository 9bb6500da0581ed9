package pix

import (
	"fmt"
	"math/bits"
)

// This file is the zero-copy publish path for diffusive image stages
// (paper §III-B2 granularity, §IV-C overheads). Publishing an intermediate
// snapshot of a partially computed image costs a full-image render per
// round when done naively — ~32 deep copies of the output per pass at the
// default granularity. The types here cut that down:
//
//   - TileGrid / DirtyTiles: tile-granular (32×32 pixels) dirty tracking,
//     marked by the apply loop as it writes the working image.
//   - TileCloner: a small ring of reusable snapshot images, each with a
//     per-image stale-tile set; syncing an image to the working state
//     copies only the tiles dirtied since that image was last synced.
//   - Snapshotter: the app-facing bundle of working image + filled mask +
//     dirty sets, rendering tree-sampled hold-fill approximations either as
//     fresh clones (immutable snapshots, the default) or into the tile
//     ring (zero allocation, bit-identical content).

// TileShift is log2 of the tile side. 32×32 tiles balance dirty-set
// precision against per-tile bookkeeping: a tile row is a 128-byte copy for
// a gray image, and a 512×512 image has 256 tiles — a 4-word bitmap.
const TileShift = 5

// TileSize is the side length of a dirty-tracking tile, in pixels.
const TileSize = 1 << TileShift

// TileGrid describes the tile decomposition of a W×H×C image.
type TileGrid struct {
	W, H, C int
	tx, ty  int // tiles across and down
}

// NewTileGrid returns the tile grid of a w×h image with c channels.
func NewTileGrid(w, h, c int) TileGrid {
	return TileGrid{
		W: w, H: h, C: c,
		tx: (w + TileSize - 1) >> TileShift,
		ty: (h + TileSize - 1) >> TileShift,
	}
}

// Tiles reports the number of tiles in the grid.
func (g TileGrid) Tiles() int { return g.tx * g.ty }

// TileOf returns the tile index containing pixel (x, y).
func (g TileGrid) TileOf(x, y int) int {
	return (y>>TileShift)*g.tx + (x >> TileShift)
}

// tileBounds returns the pixel rectangle [x0, x1) × [y0, y1) of tile t,
// clipped to the image.
func (g TileGrid) tileBounds(t int) (x0, y0, x1, y1 int) {
	x0 = (t % g.tx) << TileShift
	y0 = (t / g.tx) << TileShift
	x1 = min(x0+TileSize, g.W)
	y1 = min(y0+TileSize, g.H)
	return
}

// DirtyTiles is a bitmap over a grid's tiles. It is not safe for concurrent
// mutation.
type DirtyTiles struct {
	g     TileGrid
	words []uint64
	all   bool // fast path: every tile dirty
}

// NewDirtyTiles returns an empty dirty set over g.
func NewDirtyTiles(g TileGrid) *DirtyTiles {
	return &DirtyTiles{g: g, words: make([]uint64, (g.Tiles()+63)/64)}
}

// MarkPixel marks the tile containing pixel (x, y).
func (d *DirtyTiles) MarkPixel(x, y int) {
	t := d.g.TileOf(x, y)
	d.words[t>>6] |= 1 << (t & 63)
}

// Mark marks tile t by index.
func (d *DirtyTiles) Mark(t int) {
	d.words[t>>6] |= 1 << (t & 63)
}

// Has reports whether tile t is marked.
func (d *DirtyTiles) Has(t int) bool {
	return d.words[t>>6]&(1<<(t&63)) != 0
}

// Dilate marks the 8-neighborhood of every currently marked tile — one ring
// of growth per call. Delta starts use it to widen a changed-tile set by the
// stencil halo of the computation that will consume it: a convolution whose
// kernel reaches up to TileSize pixels past a changed pixel needs one ring.
func (d *DirtyTiles) Dilate() {
	if d.all {
		return
	}
	grown := make([]uint64, len(d.words))
	copy(grown, d.words)
	d.forEach(func(t int) {
		tx, ty := t%d.g.tx, t/d.g.tx
		for dy := -1; dy <= 1; dy++ {
			ny := ty + dy
			if ny < 0 || ny >= d.g.ty {
				continue
			}
			for dx := -1; dx <= 1; dx++ {
				nx := tx + dx
				if nx < 0 || nx >= d.g.tx {
					continue
				}
				n := ny*d.g.tx + nx
				grown[n>>6] |= 1 << (n & 63)
			}
		}
	})
	d.words = grown
}

// MarkRect marks every tile intersecting the pixel rectangle
// [x, x+side) × [y, y+side), clipped to the image.
func (d *DirtyTiles) MarkRect(x, y, side int) {
	if d.all {
		return
	}
	x1 := x + side
	y1 := y + side
	if x1 > d.g.W {
		x1 = d.g.W
	}
	if y1 > d.g.H {
		y1 = d.g.H
	}
	t0x, t0y := x>>TileShift, y>>TileShift
	t1x, t1y := (x1-1)>>TileShift, (y1-1)>>TileShift
	if t0x == 0 && t0y == 0 && t1x == d.g.tx-1 && t1y == d.g.ty-1 {
		d.MarkAll()
		return
	}
	for ty := t0y; ty <= t1y; ty++ {
		row := ty * d.g.tx
		for tx := t0x; tx <= t1x; tx++ {
			t := row + tx
			d.words[t>>6] |= 1 << (t & 63)
		}
	}
}

// MarkAll marks every tile.
func (d *DirtyTiles) MarkAll() {
	d.all = true
	for i := range d.words {
		d.words[i] = ^uint64(0)
	}
	// Keep the spare bits of the last word clear so Count and forEach never
	// see phantom tiles.
	if n := d.g.Tiles() & 63; n != 0 {
		d.words[len(d.words)-1] = 1<<n - 1
	}
}

// Reset clears the set.
func (d *DirtyTiles) Reset() {
	d.all = false
	for i := range d.words {
		d.words[i] = 0
	}
}

// Or folds src into d. The sets must share a grid.
func (d *DirtyTiles) Or(src *DirtyTiles) {
	if src.all {
		d.MarkAll()
		return
	}
	for i, w := range src.words {
		d.words[i] |= w
	}
}

// Any reports whether any tile is marked.
func (d *DirtyTiles) Any() bool {
	for _, w := range d.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Count reports the number of marked tiles (at most Tiles(); the spare bits
// of the last word are never set).
func (d *DirtyTiles) Count() int {
	n := 0
	for _, w := range d.words {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// forEach invokes fn for every marked tile, in index order.
func (d *DirtyTiles) forEach(fn func(tile int)) {
	total := d.g.Tiles()
	for i, w := range d.words {
		base := i << 6
		for ; w != 0; w &= w - 1 {
			t := base + bits.TrailingZeros64(w)
			if t >= total {
				return
			}
			fn(t)
		}
	}
}

// TileCloner is a ring of reusable snapshot images, each tracking which of
// its tiles are stale relative to the source working image. Syncing copies
// only a ring member's stale tiles, so a round that touched k tiles costs
// O(k · tile) instead of O(pixels) — and zero allocation.
//
// The aliasing contract: a snapshot returned by Sync is overwritten again
// after `depth` further Sync calls. Readers must either consume a snapshot
// promptly (within depth-1 publishes — every synchronous observer and any
// AsyncConsume child that keeps up qualifies) or copy it. Stages that hand
// snapshots to retaining consumers should use SnapshotClone instead.
type TileCloner struct {
	g     TileGrid
	ring  []*Image
	stale []*DirtyTiles
	cur   int
}

// NewTileCloner returns a cloner with depth ring images of the given
// geometry. depth must be at least 2 (double buffering: the image being
// synced is never the one just published).
func NewTileCloner(w, h, c, depth int) (*TileCloner, error) {
	if depth < 2 {
		return nil, fmt.Errorf("pix: tile cloner depth %d must be at least 2", depth)
	}
	g := NewTileGrid(w, h, c)
	tc := &TileCloner{g: g, ring: make([]*Image, depth), stale: make([]*DirtyTiles, depth)}
	for i := range tc.ring {
		im, err := New(w, h, c)
		if err != nil {
			return nil, err
		}
		tc.ring[i] = im
		tc.stale[i] = NewDirtyTiles(g)
		tc.stale[i].MarkAll() // fresh images are entirely out of sync
	}
	return tc, nil
}

// Grid reports the cloner's tile grid.
func (tc *TileCloner) Grid() TileGrid { return tc.g }

// Depth reports the ring depth.
func (tc *TileCloner) Depth() int { return len(tc.ring) }

// Invalidate records that the tiles in d changed in the source image: every
// ring member must re-copy them before it is published again.
func (tc *TileCloner) Invalidate(d *DirtyTiles) {
	for _, s := range tc.stale {
		s.Or(d)
	}
}

// InvalidateAll marks every tile of every ring member stale, as if the
// whole source image changed. It is the reuse primitive: a pooled stage
// whose working image is about to be rewritten for a new input calls it so
// no ring member can publish pixels left over from the previous run.
func (tc *TileCloner) InvalidateAll() {
	for _, s := range tc.stale {
		s.MarkAll()
	}
}

// Sync brings the next ring image up to date by re-rendering only its
// stale tiles through render (render must write every pixel of the tile it
// is given), then returns it. The returned image must not be written by the
// caller and remains valid until depth further Sync calls.
func (tc *TileCloner) Sync(render func(dst *Image, tile int)) *Image {
	tc.cur = (tc.cur + 1) % len(tc.ring)
	dst := tc.ring[tc.cur]
	st := tc.stale[tc.cur]
	st.forEach(func(t int) { render(dst, t) })
	st.Reset()
	return dst
}

// CopyTile copies tile t of the grid from src to dst row by row. It is the
// plain (no hold-fill) tile renderer.
func (g TileGrid) CopyTile(dst, src *Image, t int) {
	x0, y0, x1, y1 := g.tileBounds(t)
	rowLen := (x1 - x0) * g.C
	for y := y0; y < y1; y++ {
		off := (y*g.W + x0) * g.C
		copy(dst.Pix[off:off+rowLen], src.Pix[off:off+rowLen])
	}
}

// SnapshotMode selects how a Snapshotter renders published approximations.
type SnapshotMode int

const (
	// SnapshotClone renders every publish into a fresh image (a HoldFill
	// clone). Snapshots are immutable forever (Property 3 in its strongest
	// form) and may be retained indefinitely by any consumer. This is the
	// default and matches the pre-tile behavior bit for bit.
	SnapshotClone SnapshotMode = iota
	// SnapshotTiles renders publishes into a small ring of reused images,
	// copying only tiles dirtied since that ring slot was last published —
	// the zero-copy publish path. Content is bit-identical to
	// SnapshotClone; the trade is the TileCloner aliasing contract (a
	// snapshot is overwritten after ring-depth further publishes), so use
	// it when consumers read promptly or copy, not when they retain.
	SnapshotTiles
)

// snapshotRingDepth is the Snapshotter's ring depth in SnapshotTiles mode:
// a published snapshot survives two further publishes before its storage is
// reused, enough slack for the model's latest-wins consumers.
const snapshotRingDepth = 3

// Snapshotter renders the published approximations of a tree-sampled
// diffusive image stage: pixels not yet computed take the value of their
// nearest computed tree ancestor (exactly HoldFill), and rendering is
// either a fresh clone per publish or a dirty-tile sync into a reused ring,
// per SnapshotMode.
//
// The owning stage writes computed pixels into the working image and calls
// Mark for each; Snapshot must be called during round quiescence (no Mark
// running), which is precisely when diffusive snapshot callbacks run.
type Snapshotter struct {
	mode    SnapshotMode
	working *Image
	filled  []bool
	grid    TileGrid
	dirty   *DirtyTiles // tiles changed since the last snapshot; nil in clone mode
	cloner  *TileCloner

	// Warm-start state (see Seed): while seeded, unfilled pixels in trusted
	// tiles render from the working image — which holds a previous run's
	// published approximation — instead of hold-filling from tree ancestors.
	seeded    bool
	seedStale *DirtyTiles // tiles whose seed values are NOT trusted; nil = trust all
}

// NewSnapshotter returns a snapshotter over working in the given mode. The
// snapshotter owns the filled mask; the stage keeps ownership of working
// and writes pixel values directly.
func NewSnapshotter(working *Image, mode SnapshotMode) (*Snapshotter, error) {
	if mode != SnapshotClone && mode != SnapshotTiles {
		return nil, fmt.Errorf("pix: unknown snapshot mode %d", mode)
	}
	s := &Snapshotter{
		mode:    mode,
		working: working,
		filled:  make([]bool, working.W*working.H),
		grid:    NewTileGrid(working.W, working.H, working.C),
	}
	if mode == SnapshotTiles {
		cloner, err := NewTileCloner(working.W, working.H, working.C, snapshotRingDepth)
		if err != nil {
			return nil, err
		}
		s.cloner = cloner
		s.dirty = NewDirtyTiles(s.grid)
	}
	return s, nil
}

// Mode reports the snapshotter's rendering mode.
func (s *Snapshotter) Mode() SnapshotMode { return s.mode }

// Filled exposes the computed-pixel mask (for stages that need to consult
// it, e.g. to report coverage). The caller must not mutate it.
func (s *Snapshotter) Filled() []bool { return s.filled }

// Mark records that the stage computed (or recomputed) pixel index
// idx = y*W + x of the working image. In SnapshotTiles mode it dirties
// every tile whose rendered content the write can influence: the pixel's
// own tile, plus — because unfilled pixels inherit from their tree
// ancestors — the pixel's whole ancestor block when it is (or could feed)
// an inheritance source.
func (s *Snapshotter) Mark(idx int) {
	s.filled[idx] = true
	if s.mode != SnapshotTiles {
		return
	}
	x := idx % s.working.W
	y := idx / s.working.W
	d := s.dirty
	// Influence region of (x, y): it is the origin of tree blocks up to
	// side s = lowest set bit of (x|y); every unfilled pixel in that block
	// hold-fills from it (or from a descendant origin computed later), so
	// a write here can change the rendered value of the whole block. For
	// interior pixels (odd coordinate) this degenerates to the pixel's own
	// tile.
	m := x | y
	if m == 0 {
		d.MarkAll() // (0, 0) is the root: it can feed every pixel
		return
	}
	side := m & -m
	if side < TileSize {
		d.MarkPixel(x, y)
		return
	}
	d.MarkRect(x, y, side)
}

// Seed puts the snapshotter into warm-start mode for the next run. The
// caller must first have copied a previous run's published approximation
// into the working image; from then until Reset, pixels not yet computed
// render at their working value (the cached approximation) instead of
// hold-filling from tree ancestors, so the first snapshots of a seeded run
// start at the cached accuracy and rise from there.
//
// stale, if non-nil, marks tiles whose cached values must NOT be presented
// — the delta-start path, where the input changed in those tiles since the
// cached frame was computed (see TileDiff). Pixels in stale tiles fall back
// to ordinary hold-fill from freshly computed ancestors. stale must share
// the working image's tile grid; the snapshotter takes ownership of it.
//
// Like Reset, Seed must run during quiescence, on a freshly Reset (no
// pixels filled) snapshotter, before the automaton starts. Seeding does not
// change what the run computes — every pixel is still computed exactly once
// from the input — so the final output is bit-identical to a cold run's.
func (s *Snapshotter) Seed(stale *DirtyTiles) error {
	if stale != nil && stale.g != s.grid {
		return fmt.Errorf("pix: seed stale grid %dx%dx%d does not match working %dx%dx%d",
			stale.g.W, stale.g.H, stale.g.C, s.grid.W, s.grid.H, s.grid.C)
	}
	s.seeded = true
	s.seedStale = stale
	if s.mode == SnapshotTiles {
		// No ring member may present pixels rendered for the previous run's
		// (unseeded) working content.
		s.cloner.InvalidateAll()
	}
	return nil
}

// Seeded reports whether the snapshotter is in warm-start mode.
func (s *Snapshotter) Seeded() bool { return s.seeded }

// trusted reports whether unfilled pixels of tile t may render their seeded
// working values.
func (s *Snapshotter) trusted(t int) bool {
	return s.seeded && (s.seedStale == nil || !s.seedStale.Has(t))
}

// Snapshot renders the current approximation: every computed pixel shows
// its working value, every other pixel its nearest computed tree ancestor's
// (HoldFill semantics) — or, in a seeded run, its cached working value when
// its tile is trusted. Must run during round quiescence.
func (s *Snapshotter) Snapshot() (*Image, error) {
	if s.mode == SnapshotClone {
		if !s.seeded {
			return HoldFill(s.working, s.filled)
		}
		// Seeded clone: render tile by tile so the trusted/stale split takes
		// effect, into a fresh image (same immutability as HoldFill).
		img, err := New(s.grid.W, s.grid.H, s.grid.C)
		if err != nil {
			return nil, err
		}
		for t := 0; t < s.grid.Tiles(); t++ {
			s.renderTile(img, t)
		}
		return img, nil
	}
	s.cloner.Invalidate(s.dirty)
	s.dirty.Reset()
	return s.cloner.Sync(s.renderTile), nil
}

// Reset rewinds the snapshotter for a new run over the same working image:
// the filled mask and the dirty set are cleared, and in
// SnapshotTiles mode every ring member is marked fully stale so no snapshot
// of the new run can alias pixels from the previous one. Like Snapshot it
// must run during quiescence (no Mark running); the stage's OnReset hook is
// the natural call site. The working image itself belongs to the stage and
// is not touched — its stale content is unreachable because hold-fill only
// reads filled pixels, and the first round always fills the tree root.
func (s *Snapshotter) Reset() {
	for i := range s.filled {
		s.filled[i] = false
	}
	s.seeded = false
	s.seedStale = nil
	if s.mode != SnapshotTiles {
		return
	}
	s.dirty.Reset()
	s.cloner.InvalidateAll()
}

// renderTile renders tile t of the hold-filled approximation into dst.
func (s *Snapshotter) renderTile(dst *Image, t int) {
	g := s.grid
	w, c := g.W, g.C
	if s.trusted(t) {
		// Seeded warm start: unfilled pixels hold the cached approximation
		// in the working image, filled pixels hold their recomputed values
		// there too — the whole tile is a plain copy.
		g.CopyTile(dst, s.working, t)
		return
	}
	x0, y0, x1, y1 := g.tileBounds(t)
	for y := y0; y < y1; y++ {
		row := y * w
		for x := x0; x < x1; x++ {
			idx := row + x
			src := idx
			if !s.filled[idx] {
				src = s.ancestorOf(x, y)
			}
			copy(dst.Pix[idx*c:idx*c+c], s.working.Pix[src*c:src*c+c])
		}
	}
}

// ancestorOf returns the pixel index whose value (x, y) hold-fills from:
// the nearest filled origin along its tree-ancestor chain, or (x, y) itself
// when no ancestor is filled (matching HoldFill, which leaves such pixels
// at their working value).
func (s *Snapshotter) ancestorOf(x, y int) int {
	w := s.working.W
	for step := 2; ; step <<= 1 {
		ox := x &^ (step - 1)
		oy := y &^ (step - 1)
		if s.filled[oy*w+ox] {
			return oy*w + ox
		}
		if ox == 0 && oy == 0 {
			return y*w + x
		}
	}
}
