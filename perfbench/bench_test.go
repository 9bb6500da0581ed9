package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"anytime/internal/metrics"
	"anytime/internal/pix"
)

func TestScheduleStableForSeed(t *testing.T) {
	a := schedule(7, 80, 5*time.Second, routes, 3, 20)
	b := schedule(7, 80, 5*time.Second, routes, 3, 20)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := schedule(8, 80, 5*time.Second, routes, 3, 20); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) < 300 || len(a) > 500 {
		t.Fatalf("%d arrivals in 5s at 80/s", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i].Due < a[i-1].Due || a[i].ID != i {
			t.Fatalf("request %d out of order", i)
		}
	}
}

func TestScheduleKeyRecurrence(t *testing.T) {
	const recur, spacing = 3, 20
	reqs := schedule(3, 80, 5*time.Second, routes, recur, spacing)
	seen := make(map[string][]int)
	route := make(map[string]string)
	for _, r := range reqs {
		seen[r.Key] = append(seen[r.Key], r.ID)
		if prev, ok := route[r.Key]; ok && prev != r.Route {
			t.Fatalf("key %s on routes %s and %s", r.Key, prev, r.Route)
		}
		route[r.Key] = r.Route
	}
	full := len(reqs) / (recur * spacing) * (recur * spacing)
	for k, ids := range seen {
		if ids[0] >= full {
			continue // the last, partial block
		}
		if len(ids) != recur {
			t.Fatalf("key %s recurs %d times, want %d", k, len(ids), recur)
		}
		for i := 1; i < len(ids); i++ {
			if ids[i]-ids[i-1] != spacing {
				t.Fatalf("key %s recurs after %d requests, want %d", k, ids[i]-ids[i-1], spacing)
			}
		}
	}
	cold := schedule(3, 80, 5*time.Second, routes, 1, spacing)
	if distinctKeys(cold) != len(cold) {
		t.Fatal("cold schedule repeats a key")
	}
}

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed, so percentile must sort
		}
		return xs
	}
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{100, 0.1, 10, true},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("n=%d p=%g: got %g ok=%v, want %g ok=%v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if _, err := mustPercentile("x", seq(999), 0.99); err == nil {
		t.Error("mustPercentile accepted 999 samples for p99")
	}
}

// A handler that stalls once must show up in the latency of the requests
// queued behind it, because latency counts from the due time.
func TestSlowHandlerShowsInDueTimeLatency(t *testing.T) {
	const stall = 60 * time.Millisecond
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	c := newClient(srv.URL, 1, deadline)
	defer c.close()
	reqs := make([]request, 5)
	for i := range reqs {
		reqs[i] = request{ID: i, Due: time.Duration(i) * 5 * time.Millisecond, Route: "/", Key: "k"}
	}
	tim := openLoop(reqs, 1, func(_ int, r request) { c.do(r) })
	for i := 1; i < len(tim); i++ {
		// Request i was due i*5ms in, and could only be sent once the
		// stalled first request returned at about 60ms.
		want := stall - reqs[i].Due
		if tim[i].Latency() < want-5*time.Millisecond {
			t.Errorf("request %d: latency %v, want at least about %v", i, tim[i].Latency(), want)
		}
		if tim[i].Lag() < want-5*time.Millisecond {
			t.Errorf("request %d: lag %v, want at least about %v", i, tim[i].Lag(), want)
		}
	}
}

func testImage(t *testing.T) (*pix.Image, []byte) {
	t.Helper()
	ref, err := pix.SyntheticGray(32, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pix.EncodePNM(&buf, ref); err != nil {
		t.Fatal(err)
	}
	return ref, buf.Bytes()
}

func TestOutputCheckCatchesCorruptedBody(t *testing.T) {
	ref, good := testImage(t)
	if err := verifyReply(verifyBody(ref, good), "inf", true); err != nil {
		t.Fatalf("exact final body rejected: %v", err)
	}
	bad := bytes.Clone(good)
	bad[len(bad)-1] ^= 0x40
	bc := verifyBody(ref, bad)
	if err := verifyReply(bc, "inf", true); err == nil {
		t.Error("corrupted final body passed")
	}
	// Claiming the corrupted body's true SNR passes only as an approximation.
	claim := metrics.FormatDB(bc.snr)
	if err := verifyReply(bc, claim, false); err != nil {
		t.Errorf("approximate body with a true SNR claim rejected: %v", err)
	}
	if err := verifyReply(bc, claim, true); err == nil {
		t.Error("corrupted body marked final passed")
	}
	if err := verifyReply(bc, metrics.FormatDB(bc.snr+0.05), false); err == nil {
		t.Error("SNR claim 0.05 dB off passed")
	}
	if err := verifyReply(verifyBody(ref, good[:len(good)/2]), "inf", true); err == nil {
		t.Error("truncated body passed")
	}
	small, err := pix.SyntheticGray(16, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyReply(verifyBody(small, good), "inf", true); err == nil {
		t.Error("body of the wrong shape passed")
	}
}

func TestBodyStoreKeepsDifferingBodiesApart(t *testing.T) {
	_, good := testImage(t)
	s := newBodyStore()
	a := s.add("k", good)
	if b := s.add("k", bytes.Clone(good)); b != a {
		t.Error("identical body stored twice")
	}
	bad := bytes.Clone(good)
	bad[len(bad)-1] ^= 1
	if c := s.add("k", bad); c == a {
		t.Error("differing body folded into a stored one")
	}
}

func TestSelfTime(t *testing.T) {
	l := newSpanLog()
	at := func(ms int) time.Time { return l.base.Add(time.Duration(ms) * time.Millisecond) }
	l.add(1, "outer", "", at(0), at(10))
	l.add(1, "inner", "", at(2), at(5))
	l.add(1, "inner", "", at(4), at(7)) // overlaps the first child
	l.link(map[string]string{"inner": "outer"})
	self := l.selfTimes()
	if got := self["outer"]; len(got) != 1 || got[0] != 5 {
		t.Errorf("outer self time %v, want [5]", got)
	}
}

// BENCHMARK.json at the repository root must list exactly the workloads
// and metrics this program reports.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not known to the program", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
