package daemon

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"anytime/internal/pix"
	"anytime/internal/serve"
)

func testServer(t *testing.T) *Server {
	t.Helper()
	s, err := New(64, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestIndexAndNotFound(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/")
	if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte("hold a request")) {
		t.Errorf("index: %d %q", rec.Code, rec.Body.String())
	}
	if rec := get(t, s, "/nope"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown path: %d", rec.Code)
	}
}

func TestPreciseBlur(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/blur")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("X-Anytime-Final") != "true" {
		t.Error("precise request did not return the final output")
	}
	if rec.Header().Get("X-Anytime-SNR-dB") != "inf" {
		t.Errorf("precise SNR = %q", rec.Header().Get("X-Anytime-SNR-dB"))
	}
	img, err := pix.DecodePNM(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if img.W != 64 || img.H != 64 || img.C != 1 {
		t.Errorf("unexpected image geometry %dx%dx%d", img.W, img.H, img.C)
	}
	if !img.Equal(s.blur.ref) {
		t.Error("precise response differs from the reference")
	}
}

func TestHeldBlurReturnsValidApproximation(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/blur?deadline=3ms")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if _, err := pix.DecodePNM(bytes.NewReader(rec.Body.Bytes())); err != nil {
		t.Fatalf("deadline response not a valid image: %v", err)
	}
	if v := rec.Header().Get("X-Anytime-Version"); v == "" || v == "0" {
		t.Errorf("version header %q", v)
	}
}

func TestAcceptKnobStopsAtThreshold(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/blur?accept=10")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	snr := rec.Header().Get("X-Anytime-SNR-dB")
	if snr == "inf" {
		// Legal (small image may jump straight to precise) but the usual
		// case should stop early; just check the header parses.
		return
	}
	db, err := strconv.ParseFloat(snr, 64)
	if err != nil {
		t.Fatalf("bad SNR header %q", snr)
	}
	if db < 10 {
		t.Errorf("accepted output below threshold: %v dB", db)
	}
}

func TestClusterReturnsRGB(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/cluster?deadline=5ms")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "image/x-portable-pixmap" {
		t.Errorf("content type %q", ct)
	}
	img, err := pix.DecodePNM(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if img.C != 3 {
		t.Errorf("cluster returned %d channels", img.C)
	}
}

func TestEqualizePrecise(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/equalize")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	img, err := pix.DecodePNM(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !img.Equal(s.equalize.ref) {
		t.Error("precise equalize differs from reference")
	}
}

// TestKnobValidation is the knob parser's table: each case gives either
// the knobs it must parse to or the error it must be rejected with (and
// then a 400 at the HTTP surface).
func TestKnobValidation(t *testing.T) {
	s := testServer(t)
	tests := []struct {
		name     string
		path     string
		budget   string // X-Anytime-Budget header, "" = absent
		expected knobs
		errMsg   string // substring of the expected error; "" = must parse
	}{
		{name: "no_knobs", path: "/blur"},
		{name: "unknown_params_ignored", path: "/blur?rid=7&input=k", expected: knobs{}},
		{name: "deadline", path: "/blur?deadline=50ms", expected: knobs{deadline: 50 * time.Millisecond}},
		{name: "accept", path: "/blur?accept=25", expected: knobs{accept: 25}},
		{name: "deadline_and_accept", path: "/blur?deadline=5ms&accept=10",
			expected: knobs{deadline: 5 * time.Millisecond, accept: 10}},
		{name: "deadline_at_cap", path: "/blur?deadline=10s", expected: knobs{deadline: 10 * time.Second}},
		{name: "budget", path: "/blur?deadline=5s", budget: "30ms",
			expected: knobs{deadline: 5 * time.Second, budget: 30 * time.Millisecond, budgetSet: true}},
		{name: "hold_removed", path: "/blur?hold=50ms", errMsg: "use deadline"},
		{name: "hold_removed_with_deadline", path: "/blur?deadline=5ms&hold=5ms", errMsg: "use deadline"},
		{name: "hold_removed_even_empty", path: "/blur?hold=", errMsg: "use deadline"},
		{name: "deadline_over_cap", path: "/blur?deadline=11s", errMsg: "capped at 10s"},
		{name: "deadline_not_a_duration", path: "/blur?deadline=banana", errMsg: "bad deadline"},
		{name: "deadline_negative", path: "/blur?deadline=-5ms", errMsg: "bad deadline"},
		{name: "deadline_zero", path: "/blur?deadline=0s", errMsg: "bad deadline"},
		{name: "accept_negative", path: "/blur?accept=-1", errMsg: "bad accept"},
		{name: "accept_not_a_number", path: "/blur?accept=x", errMsg: "bad accept"},
		{name: "budget_malformed", path: "/blur?deadline=5ms", budget: "soon", errMsg: "bad X-Anytime-Budget"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodGet, tt.path, nil)
			if tt.budget != "" {
				req.Header.Set(serve.BudgetHeader, tt.budget)
			}
			k, err := parseKnobs(req)
			if tt.errMsg != "" {
				if err == nil || !strings.Contains(err.Error(), tt.errMsg) {
					t.Fatalf("error %v, want one containing %q", err, tt.errMsg)
				}
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), tt.errMsg) {
					t.Fatalf("HTTP %d %q, want 400 naming %q", rec.Code, rec.Body.String(), tt.errMsg)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if k != tt.expected {
				t.Fatalf("knobs %+v, want %+v", k, tt.expected)
			}
		})
	}
}

// TestDeadlineAndAcceptCompose: with both knobs the run stops at whichever
// condition is met first. A generous deadline leaves acceptance to end
// the run (the deadline reports not fired); a microsecond deadline against
// an unreachable threshold ends it on time.
func TestDeadlineAndAcceptCompose(t *testing.T) {
	s, err := New(256, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := get(t, s, "/blur?deadline=5s&accept=10")
	if rec.Code != http.StatusOK {
		t.Fatalf("accept-first: status %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("X-Anytime-Deadline-Fired") != "false" {
		t.Error("acceptance ended the run but the deadline reports fired")
	}
	if snr := rec.Header().Get("X-Anytime-SNR-dB"); snr != "inf" {
		if db, err := strconv.ParseFloat(snr, 64); err != nil || db < 10 {
			t.Errorf("accepted output SNR %q, want ≥ 10 dB", snr)
		}
	}

	rec = get(t, s, "/blur?deadline=1us&accept=500")
	if rec.Code != http.StatusOK {
		t.Fatalf("deadline-first: status %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("X-Anytime-Deadline-Fired") != "true" || rec.Header().Get("X-Anytime-Final") != "false" {
		t.Errorf("deadline-first: fired=%q final=%q, want true/false",
			rec.Header().Get("X-Anytime-Deadline-Fired"), rec.Header().Get("X-Anytime-Final"))
	}
	if v := rec.Header().Get("X-Anytime-Version"); v == "" || v == "0" {
		t.Errorf("deadline-first version %q", v)
	}
}

// TestDeadlineContract pins the serving contract end to end: a deadline far
// too short for the pipeline still returns 200 with a valid, decodable
// approximation (never 504), the deadline headers report the
// interruption, and the delivered-accuracy metric is recorded.
func TestDeadlineContract(t *testing.T) {
	// A larger image than the other tests so a microsecond deadline
	// reliably interrupts before the precise output.
	s, err := New(256, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := get(t, s, "/blur?deadline=1us")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	img, err := pix.DecodePNM(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatalf("deadline response not a valid image: %v", err)
	}
	if img.W != 256 || img.H != 256 {
		t.Errorf("unexpected geometry %dx%d", img.W, img.H)
	}
	if v := rec.Header().Get("X-Anytime-Version"); v == "" || v == "0" {
		t.Errorf("version header %q", v)
	}
	if d := rec.Header().Get("X-Anytime-Deadline"); d != "1µs" {
		t.Errorf("deadline header %q", d)
	}
	if rec.Header().Get("X-Anytime-Deadline-Fired") != "true" {
		t.Error("microsecond deadline did not fire")
	}
	if rec.Header().Get("X-Anytime-Final") != "false" {
		t.Error("microsecond deadline returned the final output")
	}
	metricsBody := get(t, s, "/metrics").Body.String()
	if !strings.Contains(metricsBody, "anytimed_delivered_snr_millidb") {
		t.Error("approximate delivery did not record the delivered-accuracy metric")
	}
	if !strings.Contains(metricsBody, `anytime_serve_deliveries_total{outcome="approximate"}`) {
		t.Error("serve delivery counter missing the approximate outcome")
	}
}

// TestPooledReuseStaysPreciseAcrossRequests is the warm-pool acceptance
// bar at the HTTP level: after interrupted deadline requests, the same
// pooled automaton must still produce the bit-exact precise output, for
// more than two consecutive reuse cycles.
func TestPooledReuseStaysPreciseAcrossRequests(t *testing.T) {
	s := testServer(t)
	for cycle := 1; cycle <= 3; cycle++ {
		if rec := get(t, s, "/blur?deadline=1us"); rec.Code != http.StatusOK {
			t.Fatalf("cycle %d deadline request: %d", cycle, rec.Code)
		}
		rec := get(t, s, "/blur")
		if rec.Code != http.StatusOK {
			t.Fatalf("cycle %d precise request: %d", cycle, rec.Code)
		}
		img, err := pix.DecodePNM(bytes.NewReader(rec.Body.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !img.Equal(s.blur.ref) {
			t.Fatalf("cycle %d: pooled precise output differs from the reference", cycle)
		}
	}
	// The pool must actually have been reused, not rebuilt per request.
	body := get(t, s, "/metrics").Body.String()
	warm := counterValue(t, body, `anytime_serve_pool_gets_total{pool="blur",source="warm"}`)
	if warm < 5 {
		t.Errorf("warm pool checkouts = %d across 6 requests, want ≥ 5", warm)
	}
}

// TestQueueSaturationRejects pins admission control: with one slot, no
// waiting room, and the slot held, the next request is turned away with
// 503 immediately.
func TestQueueSaturationRejects(t *testing.T) {
	s, err := New(64, 2, Config{Slots: 1, QueueLen: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.queue.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.queue.Release()
	if rec := get(t, s, "/blur"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("saturated queue returned %d, want 503", rec.Code)
	}
}

// TestOverloadPolicyValidation rejects an unknown -overload value.
func TestOverloadPolicyValidation(t *testing.T) {
	if _, err := New(64, 2, Config{Overload: "panic"}); err == nil {
		t.Fatal("bad overload policy accepted")
	}
}

func TestStreamEmitsVersionsAndEndsAtFinal(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/blur/stream")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("content type %q", ct)
	}
	body := rec.Body.String()
	events := strings.Count(body, "data: ")
	if events < 1 {
		t.Fatalf("no SSE events:\n%s", body)
	}
	if !strings.Contains(body, `"final":true`) {
		t.Errorf("stream did not end with the final version:\n%s", body)
	}
	if !strings.Contains(body, `"snr_db":"inf"`) {
		t.Errorf("final event not precise:\n%s", body)
	}
}

func TestClusterStream(t *testing.T) {
	s := testServer(t)
	rec := get(t, s, "/cluster/stream")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"final":true`) {
		t.Error("cluster stream missing final event")
	}
}

// TestStreamRunsOnThePool: a stream is an ordinary pooled request — it
// checks a warm entry out and back in, and its trace reaches the flight
// recorder with the delivery and check-in spans.
func TestStreamRunsOnThePool(t *testing.T) {
	s, err := New(64, 2, Config{TraceSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := get(t, s, "/metrics").Body.String()
	rec := get(t, s, "/blur/stream")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"final":true`) {
		t.Fatalf("stream: %d\n%s", rec.Code, rec.Body.String())
	}
	after := get(t, s, "/metrics").Body.String()
	for _, series := range []string{
		`anytime_serve_pool_gets_total{pool="blur",source="warm"}`,
		`anytime_serve_pool_puts_total{fate="retained",pool="blur"}`,
	} {
		if b, a := max(counterValue(t, before, series), 0), counterValue(t, after, series); a != b+1 {
			t.Errorf("%s: %d -> %d, want +1", series, b, a)
		}
	}

	id := rec.Header().Get("X-Anytime-Trace")
	var kinds []string
	for _, tr := range debugRequestsJSON(t, s).Traces {
		if tr.ID != id {
			continue
		}
		if tr.Route != "blur/stream" {
			t.Errorf("stream trace route %q", tr.Route)
		}
		for _, e := range tr.Events {
			kinds = append(kinds, e.Kind)
		}
	}
	joined := strings.Join(kinds, " ")
	for _, want := range []string{"pool.get", "run.start", "deliver", "pool.put"} {
		if !strings.Contains(joined, want) {
			t.Errorf("stream trace %s missing %s: %v", id, want, kinds)
		}
	}
}

// TestStreamHonoursKnobs: streams take the request knobs — a deadline ends
// the stream at the delivered approximation, and the retired hold knob is
// refused like anywhere else.
func TestStreamHonoursKnobs(t *testing.T) {
	s, err := New(256, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := get(t, s, "/blur/stream?deadline=1us")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	body := rec.Body.String()
	if strings.Count(body, "data: ") < 1 || strings.Contains(body, `"final":true`) {
		t.Errorf("microsecond-deadline stream should end on an approximation:\n%s", body)
	}
	if rec := get(t, s, "/blur/stream?hold=30ms"); rec.Code != http.StatusBadRequest {
		t.Errorf("stream with hold: %d, want 400", rec.Code)
	}
}
