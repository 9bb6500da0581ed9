package histeq

import (
	"context"
	"math"
	"testing"

	"anytime/internal/metrics"
	"anytime/internal/pix"
)

func testImage(t *testing.T, w, h int) *pix.Image {
	t.Helper()
	im, err := pix.SyntheticGray(w, h, 17)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func TestConfigValidation(t *testing.T) {
	in := testImage(t, 8, 8)
	bad := []Config{
		{Workers: -1},
		{HistSnapshots: -2},
		{ApplyGranularity: -1},
	}
	for _, cfg := range bad {
		if _, err := Precise(in, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
		if _, err := New(in, cfg); err == nil {
			t.Errorf("config %+v accepted by New", cfg)
		}
	}
	rgb := pix.MustNew(4, 4, 3)
	if _, err := Precise(rgb, Config{}); err == nil {
		t.Error("RGB input accepted")
	}
}

func TestBuildCDFAndLUT(t *testing.T) {
	var h Hist
	h.Counts[0] = 10
	h.Counts[128] = 20
	h.Counts[255] = 30
	c := buildCDF(&h)
	if c.Samples != 60 {
		t.Errorf("Samples = %d", c.Samples)
	}
	if c.Cum[0] != 10 || c.Cum[127] != 10 || c.Cum[128] != 30 || c.Cum[255] != 60 {
		t.Errorf("CDF wrong: %v %v %v %v", c.Cum[0], c.Cum[127], c.Cum[128], c.Cum[255])
	}
	l := buildLUT(c)
	// cdfMin = 10, den = 50: lut[0]=0, lut[128]=(20*255+25)/50=102, lut[255]=255.
	if l.Map[0] != 0 || l.Map[128] != 102 || l.Map[255] != 255 {
		t.Errorf("LUT wrong: %d %d %d", l.Map[0], l.Map[128], l.Map[255])
	}
}

func TestBuildLUTConstantImageIdentity(t *testing.T) {
	var h Hist
	h.Counts[42] = 100
	l := buildLUT(buildCDF(&h))
	for v, m := range l.Map {
		if m != int32(v) {
			t.Fatalf("degenerate LUT not identity at %d: %d", v, m)
		}
	}
}

func TestPreciseStretchesContrast(t *testing.T) {
	// A low-contrast ramp image must be stretched toward the full range.
	in := pix.MustNew(64, 64, 1)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			in.SetGray(x, y, 100+int32((x+y)/4)) // values 100..131
		}
	}
	out, err := Precise(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := out.Pix[0], out.Pix[0]
	for _, v := range out.Pix {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo != 0 || hi != 255 {
		t.Errorf("equalized range [%d,%d], want [0,255]", lo, hi)
	}
}

func TestPreciseParallelMatchesSerial(t *testing.T) {
	in := testImage(t, 48, 40)
	a, err := Precise(in, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Precise(in, Config{Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("parallel baseline differs")
	}
}

func TestAutomatonFinalEqualsPrecise(t *testing.T) {
	in := testImage(t, 64, 64)
	want, err := Precise(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		run, err := New(in, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if err := run.Automaton.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := run.Automaton.Wait(); err != nil {
			t.Fatal(err)
		}
		snap, ok := run.Out.Latest()
		if !ok || !snap.Final {
			t.Fatal("no final output snapshot")
		}
		if !snap.Value.Equal(want) {
			t.Errorf("workers=%d: final output differs from precise baseline", workers)
		}
	}
}

func TestIntermediateBuffersReachFinal(t *testing.T) {
	in := testImage(t, 32, 32)
	run, err := New(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Automaton.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := run.Automaton.Wait(); err != nil {
		t.Fatal(err)
	}
	if !run.HistBuf.Final() || !run.CDFBuf.Final() || !run.LUTBuf.Final() || !run.Out.Final() {
		t.Error("not every pipeline buffer reached its final version")
	}
	hist, _ := run.HistBuf.Latest()
	var total int64
	for _, c := range hist.Value.Counts {
		total += c
	}
	if total != int64(in.Pixels()) {
		t.Errorf("final histogram holds %d samples, want %d", total, in.Pixels())
	}
}

// TestEarlyOutputAvailableBeforeHistogramCompletes: the pipeline must
// publish whole-application approximations while the first stage is still
// sampling — the early-availability property of the model.
func TestEarlyOutputAvailableBeforeHistogramCompletes(t *testing.T) {
	in := testImage(t, 64, 64)
	run, err := New(in, Config{HistSnapshots: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Automaton.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Wait for the first whole-application output.
	snap, err2 := run.Out.WaitNewer(context.Background(), 0)
	if err2 != nil {
		t.Fatal(err2)
	}
	if snap.Final {
		// Possible but wildly unlikely; the first output would have to be
		// the final one.
		t.Log("first observed output was already final")
	}
	hist, ok := run.HistBuf.Latest()
	if !ok {
		t.Fatal("output published before any histogram snapshot")
	}
	if hist.Final && hist.Value.Processed == in.Pixels() && !snap.Final {
		t.Log("histogram completed before first output; pipeline overlap not observed on this run")
	}
	if err := run.Automaton.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestOutputSNRTrendsToInf(t *testing.T) {
	in := testImage(t, 64, 64)
	want, err := Precise(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var snrs []float64
	run, err := New(in, Config{
		OnSnapshot: func(img *pix.Image) {
			db, err := metrics.SNR(want.Pix, img.Pix)
			if err != nil {
				t.Error(err)
				return
			}
			snrs = append(snrs, db)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Automaton.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := run.Automaton.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(snrs) == 0 {
		t.Fatal("no output snapshots")
	}
	if !math.IsInf(snrs[len(snrs)-1], 1) {
		t.Errorf("final SNR = %v, want +Inf", snrs[len(snrs)-1])
	}
}

func TestConstantImage(t *testing.T) {
	in := pix.MustNew(16, 16, 1)
	in.Fill(99)
	want, err := Precise(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	run, err := New(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Automaton.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := run.Automaton.Wait(); err != nil {
		t.Fatal(err)
	}
	snap, _ := run.Out.Latest()
	if !snap.Value.Equal(want) {
		t.Error("constant image: final != precise")
	}
}

func TestTinyImages(t *testing.T) {
	for _, dim := range [][2]int{{1, 1}, {2, 3}, {7, 1}} {
		in := testImage(t, dim[0], dim[1])
		want, err := Precise(in, Config{})
		if err != nil {
			t.Fatal(err)
		}
		run, err := New(in, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := run.Automaton.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := run.Automaton.Wait(); err != nil {
			t.Fatal(err)
		}
		snap, _ := run.Out.Latest()
		if !snap.Value.Equal(want) {
			t.Errorf("%v: final != precise", dim)
		}
	}
}

// TestReorderInputEquivalence: the §IV-C3 in-memory data reordering is a
// pure locality optimization — the final output must be bit-identical with
// and without it.
func TestReorderInputEquivalence(t *testing.T) {
	in := testImage(t, 64, 64)
	runWith := func(reorder bool) *pix.Image {
		run, err := New(in, Config{ReorderInput: reorder})
		if err != nil {
			t.Fatal(err)
		}
		if err := run.Automaton.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := run.Automaton.Wait(); err != nil {
			t.Fatal(err)
		}
		snap, ok := run.Out.Latest()
		if !ok || !snap.Final {
			t.Fatal("no final output")
		}
		return snap.Value
	}
	plain := runWith(false)
	reordered := runWith(true)
	if !plain.Equal(reordered) {
		t.Error("input reordering changed the output")
	}
	want, err := Precise(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reordered.Equal(want) {
		t.Error("reordered run differs from precise baseline")
	}
}

// TestReorderInputHistogramsMatch: intermediate histograms are estimates of
// the same population either way; the FINAL histograms must be identical.
func TestReorderInputHistogramsMatch(t *testing.T) {
	in := testImage(t, 32, 32)
	finalHist := func(reorder bool) *Hist {
		run, err := New(in, Config{ReorderInput: reorder})
		if err != nil {
			t.Fatal(err)
		}
		if err := run.Automaton.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := run.Automaton.Wait(); err != nil {
			t.Fatal(err)
		}
		snap, _ := run.HistBuf.Latest()
		return snap.Value
	}
	a, b := finalHist(false), finalHist(true)
	if a.Counts != b.Counts {
		t.Error("final histograms differ under reordering")
	}
}

// TestResetReuseBitExact guards the warm-pool hazard specific to this app:
// the running histogram lives outside the stage function, so a reused
// automaton that failed to zero it would double-count every pixel. Three consecutive checkouts must each end bit-exact with Precise.
func TestResetReuseBitExact(t *testing.T) {
	in := testImage(t, 32, 32)
	ref, err := Precise(in, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	run, err := New(in, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for cycle := 1; cycle <= 3; cycle++ {
		if err := run.Automaton.Start(context.Background()); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if err := run.Automaton.Wait(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		snap, ok := run.Out.Latest()
		if !ok || !snap.Final {
			t.Fatalf("cycle %d: no final output", cycle)
		}
		if !snap.Value.Equal(ref) {
			t.Fatalf("cycle %d: reused automaton diverged from Precise", cycle)
		}
		if err := run.Automaton.Reset(); err != nil {
			t.Fatalf("cycle %d: reset: %v", cycle, err)
		}
	}
}
