package daemon

import (
	"fmt"
	"net/http"
	"time"

	"anytime/internal/core"
	"anytime/internal/metrics"
	"anytime/internal/pix"
)

// sseStream is the Server-Sent Events side of handleApp (/blur/stream,
// /cluster/stream): the client watches the whole-application output
// quality rise live, one event per version the run observes, and decides
// for itself when to stop listening — the hold-the-power-button
// interaction with the button on the client side. A stream is otherwise an
// ordinary request: it takes an execution slot and a warm pool entry,
// honours the same knobs, and is traced to /debug/requests.
//
//	data: {"version":3,"final":false,"snr_db":"24.18","elapsed_ms":12}
//
// The last event is the delivered snapshot: the final (precise) version
// unless a knob ended the run early. Closing the request stops the
// automaton.
type sseStream struct {
	w     http.ResponseWriter
	start time.Time
	last  core.Version
}

func newSSE(w http.ResponseWriter, start time.Time) *sseStream {
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	return &sseStream{w: w, start: start}
}

// send emits snap as an event unless it is the version last sent. A nil
// stream sends nothing.
func (e *sseStream) send(snap core.Snapshot[*pix.Image], db float64) {
	if e == nil || snap.Version == e.last {
		return
	}
	e.last = snap.Version
	fmt.Fprintf(e.w, "data: {\"version\":%d,\"final\":%v,\"snr_db\":%q,\"elapsed_ms\":%d}\n\n",
		snap.Version, snap.Final, metrics.FormatDB(db), time.Since(e.start).Milliseconds())
	if f, ok := e.w.(http.Flusher); ok {
		f.Flush()
	}
}
