package daemon

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"anytime/internal/serve"
)

// knobs are one request's stopping controls: the paper's two triggers
// (§III-A), a time constraint and an accuracy metric, as stop conditions
// on one run. Whichever is met first ends it.
type knobs struct {
	// deadline is the serving contract: the best published snapshot when
	// the deadline fires, never empty-handed, shed under load. Zero runs
	// to the precise output.
	deadline time.Duration
	// accept, when set, also stops the run at the first output reaching
	// this SNR (dB).
	accept float64
	// budget is the remaining deadline budget a routing tier handed this
	// backend (serve.BudgetHeader); budgetSet reports whether the header
	// was present. It caps the deadline knob and is ignored without one —
	// zero-deadline precise requests are never budgeted.
	budget    time.Duration
	budgetSet bool
}

// knobCap bounds the deadline knob so a stray client cannot park on an
// execution slot indefinitely.
const knobCap = 10 * time.Second

// parseKnobs extracts the deadline/accept stopping knobs from a request,
// plus the router-propagated deadline budget header. Unknown parameters
// are ignored.
func parseKnobs(r *http.Request) (knobs, error) {
	var k knobs
	var err error
	q := r.URL.Query()
	if q.Has("hold") {
		// The retired raw-stop knob is refused, not ignored: ignoring it
		// would turn an old client's 50ms request into a run to precision.
		return knobs{}, errors.New("the hold knob is gone: use deadline (e.g. deadline=50ms), which always delivers the best published snapshot")
	}
	if d := q.Get("deadline"); d != "" {
		k.deadline, err = time.ParseDuration(d)
		if err != nil || k.deadline <= 0 {
			return knobs{}, fmt.Errorf("bad deadline %q", d)
		}
		if k.deadline > knobCap {
			return knobs{}, fmt.Errorf("deadline capped at %v", knobCap)
		}
	}
	if a := q.Get("accept"); a != "" {
		k.accept, err = strconv.ParseFloat(a, 64)
		if err != nil || k.accept <= 0 {
			return knobs{}, fmt.Errorf("bad accept threshold %q", a)
		}
	}
	if k.budget, k.budgetSet, err = serve.ParseBudget(r.Header.Get(serve.BudgetHeader)); err != nil {
		return knobs{}, err
	}
	return k, nil
}
