package main

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"

	"anytime/internal/metrics"
	"anytime/internal/pix"
)

// snrTolerance is how far the SNR a response claims may sit from the SNR
// recomputed from its body. The header carries two decimals.
const snrTolerance = 0.01

// snrCap stands in for the infinite SNR of a precise output in SNR
// percentiles.
const snrCap = 200.0

// bodyStore keeps the distinct response bodies of a window so that they
// can be checked after it, outside the timed part. Identical bodies (the
// same version of the same route) are stored once; a body that differs in
// any byte is stored on its own, so a corrupted body is never folded into
// a good one.
type bodyStore struct {
	mu     sync.Mutex
	byKey  map[string][]int
	bodies [][]byte
}

func newBodyStore() *bodyStore { return &bodyStore{byKey: make(map[string][]int)} }

// add files body under key and returns its index.
func (s *bodyStore) add(key string, body []byte) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, i := range s.byKey[key] {
		if bytes.Equal(s.bodies[i], body) {
			return i
		}
	}
	s.bodies = append(s.bodies, body)
	i := len(s.bodies) - 1
	s.byKey[key] = append(s.byKey[key], i)
	return i
}

// bodyCheck is what a body is found to hold.
type bodyCheck struct {
	snr   float64 // recomputed against the reference; +Inf when exact
	exact bool    // bit-identical to the reference
	err   error   // undecodable or the wrong shape
}

// verifyBody decodes body and scores it against the precise reference.
func verifyBody(ref *pix.Image, body []byte) bodyCheck {
	im, err := pix.DecodePNM(bytes.NewReader(body))
	if err != nil {
		return bodyCheck{err: fmt.Errorf("body does not decode: %v", err)}
	}
	if im.W != ref.W || im.H != ref.H || im.C != ref.C {
		return bodyCheck{err: fmt.Errorf("body is %dx%dx%d, want %dx%dx%d", im.W, im.H, im.C, ref.W, ref.H, ref.C)}
	}
	db, err := metrics.SNR(ref.Pix, im.Pix)
	if err != nil {
		return bodyCheck{err: fmt.Errorf("scoring body: %v", err)}
	}
	return bodyCheck{snr: db, exact: slices.Equal(ref.Pix, im.Pix)}
}

// verifyReply checks a response's claims against its checked body: the
// X-Anytime-SNR-dB header must match the recomputed SNR, and a response
// marked final must be bit-identical to the reference.
func verifyReply(bc bodyCheck, snrHeader string, final bool) error {
	if bc.err != nil {
		return bc.err
	}
	claimed, err := strconv.ParseFloat(snrHeader, 64)
	if err != nil {
		return fmt.Errorf("X-Anytime-SNR-dB %q does not parse", snrHeader)
	}
	switch {
	case math.IsInf(claimed, 1) != math.IsInf(bc.snr, 1):
		return fmt.Errorf("SNR claimed %s dB, recomputed %s dB", snrHeader, metrics.FormatDB(bc.snr))
	case !math.IsInf(claimed, 1) && math.Abs(claimed-bc.snr) > snrTolerance:
		return fmt.Errorf("SNR claimed %s dB, recomputed %.4f dB", snrHeader, bc.snr)
	}
	if final && !bc.exact {
		return fmt.Errorf("final output differs from the precise reference")
	}
	return nil
}

// cappedSNR maps an exact output's infinite SNR onto snrCap.
func cappedSNR(db float64) float64 { return min(db, snrCap) }
