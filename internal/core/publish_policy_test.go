package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests for the wait-free buffer's demand tracking and the diffusive
// publish policies.

func TestBufferPublishAmortizedAllocFree(t *testing.T) {
	buf := NewBuffer[int]("b", nil)
	// Warm the arena past its growth phase.
	for i := 0; i < snapArenaCap*2; i++ {
		if _, err := buf.Publish(i, false); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := buf.Publish(1, false); err != nil {
			t.Fatal(err)
		}
	})
	// One chunk allocation per snapArenaCap publishes; anything near 1
	// means the per-publish channel (or cell) allocation came back.
	if avg > 2.0/float64(snapArenaCap) {
		t.Errorf("publish allocates %.3f objects/op, want ~1/%d", avg, snapArenaCap)
	}
}

func TestBufferLatestAllocFree(t *testing.T) {
	buf := NewBuffer[int]("b", nil)
	if _, err := buf.Publish(1, false); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(100, func() { buf.Latest() }); avg != 0 {
		t.Errorf("Latest allocates %.3f objects/op, want 0", avg)
	}
}

func TestBufferDemandedSemantics(t *testing.T) {
	buf := NewBuffer[int]("b", nil)
	if !buf.Demanded() {
		t.Error("empty buffer should be demanded (first publish always has value)")
	}
	if _, err := buf.Publish(1, false); err != nil {
		t.Fatal(err)
	}
	if buf.Demanded() {
		t.Error("unconsumed snapshot reported as demanded")
	}
	if _, ok := buf.Peek(); !ok {
		t.Fatal("peek failed")
	}
	if buf.Demanded() {
		t.Error("Peek must not register demand")
	}
	if _, ok := buf.Latest(); !ok {
		t.Fatal("latest failed")
	}
	if !buf.Demanded() {
		t.Error("consumed snapshot should re-arm demand")
	}
	if _, err := buf.Publish(2, false); err != nil {
		t.Fatal(err)
	}
	if buf.Demanded() {
		t.Error("fresh unconsumed snapshot reported as demanded")
	}
	// A blocked waiter is demand.
	armed := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		close(armed)
		if _, err := buf.WaitNewer(context.Background(), 2); err != nil {
			t.Error(err)
		}
	}()
	<-armed
	for !buf.Demanded() {
		time.Sleep(time.Millisecond) // waiter not yet parked
	}
	if _, err := buf.Publish(3, false); err != nil {
		t.Fatal(err)
	}
	<-done
}

func TestBufferObserverCountsAsDemand(t *testing.T) {
	buf := NewBuffer[int]("b", nil)
	buf.OnPublish(func(Snapshot[int]) {})
	if _, err := buf.Publish(1, false); err != nil {
		t.Fatal(err)
	}
	if !buf.Demanded() {
		t.Error("buffer with an observer should always be demanded")
	}
}

// TestBufferConcurrentPublishWaitDemand races a publisher against waiters
// and demand pollers; run with -race it checks the lock-free paths.
func TestBufferConcurrentPublishWaitDemand(t *testing.T) {
	buf := NewBuffer[int]("b", nil)
	const publishes = 2000
	var wg sync.WaitGroup
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last Version
			for {
				s, err := buf.WaitNewer(ctx, last)
				if err != nil {
					return
				}
				if s.Version <= last {
					t.Errorf("version went backwards: %d after %d", s.Version, last)
					return
				}
				last = s.Version
				if s.Final {
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ctx.Err() == nil {
			buf.Demanded()
			buf.Peek()
			buf.Latest()
		}
	}()
	for i := 1; i <= publishes; i++ {
		if _, err := buf.Publish(i, i == publishes); err != nil {
			t.Error(err)
			break
		}
	}
	cancel()
	wg.Wait()
}

// stageEnv runs a single diffusive stage to completion and returns its
// error.
func stageEnv(t *testing.T, stage func(*Context) error) error {
	t.Helper()
	a := New()
	if err := a.AddStage("s", stage); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	return a.Wait()
}

func TestDiffusiveGranularityExceedsTotal(t *testing.T) {
	out := NewBuffer[int]("out", nil)
	const total = 5
	snapshots := 0
	err := stageEnv(t, func(c *Context) error {
		return Diffusive(c, out, total,
			func(pos int) error { return nil },
			func(processed int) (int, error) { snapshots++; return processed, nil },
			RoundConfig{Granularity: total * 10})
	})
	if err != nil {
		t.Fatal(err)
	}
	if snapshots != 1 {
		t.Errorf("snapshot called %d times, want 1 (single oversized round)", snapshots)
	}
	s, ok := out.Latest()
	if !ok || s.Version != 1 || !s.Final || s.Value != total {
		t.Errorf("snapshot = %+v, %v", s, ok)
	}
}

func TestRoundConfigRejectsBadPolicyAndBudget(t *testing.T) {
	out := NewBuffer[int]("out", nil)
	noop := func(pos int) error { return nil }
	snap := func(processed int) (int, error) { return processed, nil }
	if err := stageEnv(t, func(c *Context) error {
		return Diffusive(c, out, 4, noop, snap, RoundConfig{Policy: PublishPolicy(99)})
	}); err == nil {
		t.Error("bogus policy accepted")
	}
	out2 := NewBuffer[int]("out2", nil)
	if err := stageEnv(t, func(c *Context) error {
		return Diffusive(c, out2, 4, noop, snap, RoundConfig{PublishBudget: 1.5})
	}); err == nil {
		t.Error("out-of-range budget accepted")
	}
}

func TestPublishOnDemandSkipsUnconsumedRounds(t *testing.T) {
	out := NewBuffer[int]("out", nil)
	const total, gran = 64, 4 // 16 round boundaries
	snapshots := 0
	err := stageEnv(t, func(c *Context) error {
		return Diffusive(c, out, total,
			func(pos int) error { return nil },
			func(processed int) (int, error) { snapshots++; return processed, nil },
			RoundConfig{Granularity: gran, Policy: PublishOnDemand})
	})
	if err != nil {
		t.Fatal(err)
	}
	// Round 1 publishes (empty buffer is demand), nobody consumes, so every
	// other non-final round is skipped; the final round always publishes.
	if snapshots != 2 {
		t.Errorf("snapshot built %d times, want 2 (first + final)", snapshots)
	}
	s, ok := out.Latest()
	if !ok || !s.Final || s.Value != total || s.Version != 2 {
		t.Errorf("final snapshot = %+v, %v", s, ok)
	}
}

func TestPublishOnDemandServesConsumers(t *testing.T) {
	out := NewBuffer[int]("out", nil)
	// An observer is standing demand: every round must publish.
	var seen atomic.Int64
	out.OnPublish(func(Snapshot[int]) { seen.Add(1) })
	const total, gran = 64, 4
	err := stageEnv(t, func(c *Context) error {
		return Diffusive(c, out, total,
			func(pos int) error { return nil },
			func(processed int) (int, error) { return processed, nil },
			RoundConfig{Granularity: gran, Policy: PublishOnDemand})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := seen.Load(); got != total/gran {
		t.Errorf("observer saw %d publishes, want %d", got, total/gran)
	}
}

func TestPublishAdaptiveStaysNearBudget(t *testing.T) {
	out := NewBuffer[int]("out", nil)
	const total, gran = 256, 4 // 64 round boundaries
	snapshots := 0
	err := stageEnv(t, func(c *Context) error {
		return Diffusive(c, out, total,
			func(pos int) error { return nil }, // apply is ~free
			func(processed int) (int, error) {
				snapshots++
				time.Sleep(2 * time.Millisecond) // snapshots are expensive
				return processed, nil
			},
			RoundConfig{Granularity: gran, Policy: PublishAdaptive, PublishBudget: 0.05})
	})
	if err != nil {
		t.Fatal(err)
	}
	// With free applies and 2ms snapshots, publishing every round would put
	// snapshot time at ~100% of stage time; a 5% budget must skip most
	// boundaries. The exact count is timing-dependent; the invariant is
	// "far fewer than every round, and always the final one".
	if snapshots >= total/gran/2 {
		t.Errorf("adaptive policy built %d snapshots of %d boundaries", snapshots, total/gran)
	}
	if s, ok := out.Latest(); !ok || !s.Final || s.Value != total {
		t.Errorf("final snapshot = %+v, %v", s, ok)
	}
}

// TestPublishAdaptiveZeroBudgetStillPublishesFinal pins the anytime
// contract against the governor: PublishBudget == 0 means "use the
// default", not "never publish", and even the stingiest governor state
// must not suppress the final precise snapshot (Property 1 outranks the
// overhead target).
func TestPublishAdaptiveZeroBudgetStillPublishesFinal(t *testing.T) {
	out := NewBuffer[int]("out", nil)
	const total, gran = 256, 4
	err := stageEnv(t, func(c *Context) error {
		return Diffusive(c, out, total,
			func(pos int) error { return nil },
			func(processed int) (int, error) {
				time.Sleep(time.Millisecond) // make every snapshot look expensive
				return processed, nil
			},
			RoundConfig{Granularity: gran, Policy: PublishAdaptive}) // budget left zero
	})
	if err != nil {
		t.Fatal(err)
	}
	s, ok := out.Latest()
	if !ok {
		t.Fatal("zero-budget adaptive stage never published")
	}
	if !s.Final || s.Value != total {
		t.Errorf("terminal snapshot = %+v, want final with value %d", s, total)
	}
}

// TestPublishAdaptiveTinyBudgetStillPublishesFinal drives the same
// contract to its pathological corner: a budget so small the governor
// wants to skip every boundary. Intermediate rounds may all be suppressed;
// the final round must still land, and it must be the precise output.
func TestPublishAdaptiveTinyBudgetStillPublishesFinal(t *testing.T) {
	out := NewBuffer[int]("out", nil)
	const total, gran = 256, 4
	snapshots := 0
	err := stageEnv(t, func(c *Context) error {
		return Diffusive(c, out, total,
			func(pos int) error { return nil },
			func(processed int) (int, error) {
				snapshots++
				time.Sleep(time.Millisecond)
				return processed, nil
			},
			RoundConfig{Granularity: gran, Policy: PublishAdaptive, PublishBudget: 1e-9})
	})
	if err != nil {
		t.Fatal(err)
	}
	s, ok := out.Latest()
	if !ok || !s.Final || s.Value != total {
		t.Fatalf("terminal snapshot = %+v, %v; want final with value %d", s, ok, total)
	}
	if snapshots < 1 {
		t.Error("final snapshot was never built")
	}
	t.Logf("tiny budget built %d of %d boundary snapshots", snapshots, total/gran)
}
