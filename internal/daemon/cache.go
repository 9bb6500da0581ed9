package daemon

import (
	"context"

	"anytime/internal/core"
	"anytime/internal/pix"
	"anytime/internal/reqtrace"
	"anytime/internal/serve"
	"anytime/internal/snapcache"
	"anytime/internal/telemetry"
)

// cacheEpoch fingerprints the configuration a cached snapshot depends on:
// the input geometry. The worker count is not part of it, because it only
// sizes the precise baseline's goroutines and changes no published byte.
// Any future knob that changes what a route computes must be folded in
// here.
func cacheEpoch(size int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(size>>(8*i)))) * prime64
	}
	return h
}

// seed warm-starts a deadline request's entry from the snapshot cache: the
// content key's own entry, or failing that a delta start from the sibling
// key the client names with ?prior= (typically the previous frame of a
// stream). It returns the X-Anytime-Cache value ("hit", "delta", "miss",
// or "" with caching disabled) and the seed version.
func (s *Server) seed(ctx context.Context, entry serve.Entry[*pix.Image], rt *route, key snapcache.Key, prior string) (string, core.Version) {
	if s.cache == nil {
		return "", 0
	}
	if ce, hit := serve.SeedFromCache(ctx, entry, s.cache, key); hit {
		s.reg.Counter(telemetry.MetricSnapcacheSeeds, telemetry.Labels{"mode": "warm"}).Inc()
		return "hit", ce.Version
	}
	if prior != "" {
		if mode, v := s.seedDelta(ctx, entry, rt.pool.Name(), prior, rt.input); mode != "" {
			return mode, v
		}
	}
	return "miss", 0
}

// seedDelta attempts a delta start: the request's exact content key
// missed, but the client named a sibling key (?prior=, typically the
// previous frame of a stream) whose entry may still be cached. On a
// sibling hit, the tiles where the two inputs differ are computed with
// pix.TileDiff, dilated once for the consumers' stencil halo, and the
// automaton is seeded with a pix.SeedFrame — the cached frame with the
// changed tiles marked stale, so only those fall back to hold-fill until
// recomputed.
//
// The daemon's in-process routes serve one fixed input each, so prior and
// current input pixels coincide and the diff is empty; clients running
// their own frames through cmd/anytime -cache (or embedding
// internal/serve directly) exercise real frame-to-frame diffs. Returns
// the X-Anytime-Cache header value ("delta", or "" when the sibling also
// missed or could not seed) and the seed version.
func (s *Server) seedDelta(ctx context.Context, entry serve.Entry[*pix.Image], app, prior string, input *pix.Image) (string, core.Version) {
	tr := reqtrace.FromContext(ctx)
	pe, ok := s.cache.Get(snapcache.Key{App: app, Digest: prior, Epoch: s.cacheEpoch})
	if !ok {
		return "", 0
	}
	tr.CacheHit(prior, uint64(pe.Version), true)
	// The sibling entry's input is this route's own input (one fixed input
	// per route); diff yields the tiles that cannot be trusted.
	stale, err := pix.TileDiff(input, input)
	if err != nil {
		tr.Error("delta diff: " + err.Error())
		return "", 0
	}
	stale.Dilate()
	if !serve.Seed(ctx, entry, &pix.SeedFrame{Image: pe.Value, Stale: stale}, pe.Version) {
		return "", 0
	}
	s.reg.Counter(telemetry.MetricSnapcacheSeeds, telemetry.Labels{"mode": "delta"}).Inc()
	return "delta", pe.Version
}
