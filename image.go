package anytime

import "anytime/internal/pix"

// Image is the fixed-point image type used by the benchmark applications:
// W x H pixels with C interleaved int32 channels.
type Image = pix.Image

// NewGrayImage returns a zeroed single-channel image.
func NewGrayImage(w, h int) (*Image, error) { return pix.NewGray(w, h) }

// NewRGBImage returns a zeroed three-channel image.
func NewRGBImage(w, h int) (*Image, error) { return pix.NewRGB(w, h) }

// SyntheticGray returns a deterministic single-channel 8-bit test image.
func SyntheticGray(w, h int, seed uint64) (*Image, error) { return pix.SyntheticGray(w, h, seed) }

// SyntheticRGB returns a deterministic three-channel 8-bit test image.
func SyntheticRGB(w, h int, seed uint64) (*Image, error) { return pix.SyntheticRGB(w, h, seed) }

// HoldFill renders a displayable approximation from a partially computed
// image: unfilled pixels take the value of their nearest filled
// tree-sampling ancestor, turning a tree-order prefix into a complete
// low-resolution image (the approximate outputs of paper Figures 16–18).
func HoldFill(src *Image, filled []bool) (*Image, error) { return pix.HoldFill(src, filled) }

// SnapshotMode selects how a Snapshotter renders a diffusive image stage's
// published approximations: fresh immutable clones, or the zero-copy
// dirty-tile ring.
type SnapshotMode = pix.SnapshotMode

const (
	// SnapshotClone renders every publish into a fresh image; snapshots are
	// immutable forever and may be retained by any consumer.
	SnapshotClone = pix.SnapshotClone
	// SnapshotTiles renders publishes into a small ring of reused images,
	// copying only tiles dirtied since that slot was last published.
	// Bit-identical content at a fraction of the cost; snapshots are
	// overwritten after ring-depth further publishes, so consumers must
	// read promptly or copy.
	SnapshotTiles = pix.SnapshotTiles
)

// Snapshotter renders hold-filled approximations of a tree-sampled
// diffusive image stage, tracking computed pixels and dirty tiles. The
// stage writes pixels into the working image and calls Mark; Snapshot
// (called during round quiescence) renders the publishable approximation
// per the selected mode.
type Snapshotter = pix.Snapshotter

// NewSnapshotter returns a snapshotter over working in the given snapshot
// mode.
func NewSnapshotter(working *Image, mode SnapshotMode) (*Snapshotter, error) {
	return pix.NewSnapshotter(working, mode)
}

// WritePNMFile encodes an image to a binary PGM (1 channel) or PPM
// (3 channels) file.
func WritePNMFile(path string, im *Image) error { return pix.WritePNMFile(path, im) }

// ReadPNMFile decodes a binary PGM/PPM file.
func ReadPNMFile(path string) (*Image, error) { return pix.ReadPNMFile(path) }
