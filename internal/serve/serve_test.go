package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"anytime/internal/core"
	"anytime/internal/reqtrace"
)

// pacedEntry builds an automaton publishing versions 1..n, blocking on
// step between publishes so tests control exactly how far it gets.
func pacedEntry(n int) (Entry[int], chan struct{}) {
	step := make(chan struct{})
	out := core.NewBuffer[int]("paced", nil)
	a := core.New()
	_ = a.AddStage("paced", func(c *core.Context) error {
		for i := 1; i <= n; i++ {
			select {
			case <-step:
			case <-c.Context().Done():
				return core.ErrStopped
			}
			if err := c.Checkpoint(); err != nil {
				return err
			}
			if _, err := out.Publish(i, i == n); err != nil {
				return err
			}
		}
		return nil
	})
	a.OnReset(out.Reset)
	return Entry[int]{Automaton: a, Out: out}, step
}

func TestRunPreciseNoDeadline(t *testing.T) {
	e, step := pacedEntry(3)
	close(step) // free-running
	var delivered []bool
	h := &Hooks{Deliver: func(interrupted, final bool, _ time.Duration) {
		delivered = append(delivered, interrupted, final)
	}}
	res, err := Run(context.Background(), e, 0, h)
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot.Value != 3 || !res.Snapshot.Final || res.Interrupted {
		t.Fatalf("result %+v, want final value 3", res)
	}
	if len(delivered) != 2 || delivered[0] || !delivered[1] {
		t.Fatalf("Deliver hook saw %v, want [false true]", delivered)
	}
}

func TestRunDeadlineDeliversBestApproximation(t *testing.T) {
	e, step := pacedEntry(3)
	// Allow exactly one publish, then stall: the deadline must fire and
	// deliver version 1 rather than erroring or waiting for precision.
	go func() { step <- struct{}{} }()
	res, err := Run(context.Background(), e, 30*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot.Version != 1 || res.Snapshot.Final {
		t.Fatalf("snapshot %+v, want non-final version 1", res.Snapshot)
	}
	if !res.Interrupted {
		t.Fatal("deadline fire not reported as interruption")
	}
}

func TestRunDeadlineWaitsForFirstPublish(t *testing.T) {
	e, step := pacedEntry(2)
	// Nothing published when the deadline fires; Run must hold on for the
	// first version instead of failing.
	go func() {
		time.Sleep(40 * time.Millisecond)
		step <- struct{}{}
	}()
	res, err := Run(context.Background(), e, 5*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot.Version != 1 || !res.Interrupted {
		t.Fatalf("result %+v, want interrupted version 1", res)
	}
}

func TestRunFinishBeforeDeadlineIsPrecise(t *testing.T) {
	e, step := pacedEntry(2)
	close(step)
	res, err := Run(context.Background(), e, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Snapshot.Final || res.Interrupted {
		t.Fatalf("result %+v, want precise uninterrupted", res)
	}
}

func TestRunClientDisconnect(t *testing.T) {
	e, _ := pacedEntry(2) // never steps: stalls before first publish
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, err := Run(ctx, e, time.Hour, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("disconnected run: %v, want context.Canceled", err)
	}
	// The automaton was stopped, so the entry is poolable again.
	if err := e.Automaton.Reset(); err != nil {
		t.Fatal(err)
	}
}

func TestRunStageFailurePropagates(t *testing.T) {
	out := core.NewBuffer[int]("fail", nil)
	a := core.New()
	if err := a.AddStage("fail", func(c *core.Context) error {
		return errors.New("boom")
	}); err != nil {
		t.Fatal(err)
	}
	e := Entry[int]{Automaton: a, Out: out}
	if _, err := Run(context.Background(), e, 0, nil); err == nil || errors.Is(err, core.ErrStopped) {
		t.Fatalf("stage failure surfaced as %v", err)
	}
}

func TestRunAcceptsEarlySnapshot(t *testing.T) {
	e, step := pacedEntry(5)
	close(step)
	res, err := Run(context.Background(), e, 0, nil, func(s core.Snapshot[int]) bool {
		return s.Value >= 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot.Value < 2 || res.Interrupted == res.Snapshot.Final {
		t.Fatalf("result %+v, want accepted snapshot ≥ 2", res)
	}
	// Reusable afterwards: no observers were registered on the pooled
	// buffer, so a second request repeats the cycle identically.
	if err := e.Automaton.Reset(); err != nil {
		t.Fatal(err)
	}
	res2, err := Run(context.Background(), e, 0, nil, func(s core.Snapshot[int]) bool {
		return s.Value >= 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Snapshot.Value < 2 {
		t.Fatalf("second cycle result %+v", res2)
	}
}

func TestRunNeverAcceptedRunsToPrecision(t *testing.T) {
	e, step := pacedEntry(3)
	close(step)
	res, err := Run(context.Background(), e, 0, nil, func(core.Snapshot[int]) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if !res.Snapshot.Final || res.Snapshot.Value != 3 || res.Interrupted {
		t.Fatalf("result %+v, want precise value 3", res)
	}
}

// TestRunNilPredicateRunsToPrecision: a nil predicate is no predicate —
// the knob-less contract, not an error.
func TestRunNilPredicateRunsToPrecision(t *testing.T) {
	e, step := pacedEntry(2)
	close(step)
	res, err := Run(context.Background(), e, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Snapshot.Final || res.Snapshot.Value != 2 || res.Interrupted {
		t.Fatalf("result %+v, want precise value 2", res)
	}
}

func TestRunAcceptClientDisconnect(t *testing.T) {
	e, _ := pacedEntry(2)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, err := Run(ctx, e, 0, nil, func(core.Snapshot[int]) bool { return false }); !errors.Is(err, context.Canceled) {
		t.Fatalf("disconnected accept run: %v", err)
	}
}

// TestRunDeadlineFiresBeforeAccept: with both stop conditions armed, the
// deadline wins when the predicate never admits in time — the newest
// published snapshot is delivered, and the trace records the fire.
func TestRunDeadlineFiresBeforeAccept(t *testing.T) {
	e, step := pacedEntry(5)
	go func() { step <- struct{}{} }() // one publish, then stall
	ctx, tr := reqtrace.New(context.Background(), "paced")
	var seen []int
	res, err := Run(ctx, e, 30*time.Millisecond, nil, func(s core.Snapshot[int]) bool {
		seen = append(seen, s.Value)
		return s.Value >= 4
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot.Value != 1 || !res.Interrupted {
		t.Fatalf("result %+v, want interrupted version 1", res)
	}
	if len(seen) != 1 || seen[0] != 1 {
		t.Fatalf("predicate saw %v, want [1]", seen)
	}
	fired := false
	for _, ev := range tr.Events() {
		fired = fired || ev.Kind == reqtrace.KindDeadline
	}
	if !fired {
		t.Fatal("deadline fire not traced")
	}
}

// TestRunAcceptBeforeDeadline: the predicate admits long before a generous
// deadline, and the admitted snapshot is the one delivered.
func TestRunAcceptBeforeDeadline(t *testing.T) {
	e, step := pacedEntry(5)
	close(step)
	res, err := Run(context.Background(), e, time.Hour, nil, func(s core.Snapshot[int]) bool {
		return s.Value >= 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Snapshot.Value < 2 || res.Interrupted == res.Snapshot.Final {
		t.Fatalf("result %+v, want accepted snapshot ≥ 2", res)
	}
}

// TestServeCycleUnderConcurrency drives the full pool+queue+run composition
// the way anytimed does, with the race detector watching.
func TestServeCycleUnderConcurrency(t *testing.T) {
	builds := 0
	var mu sync.Mutex
	p, err := NewPool("cycle", 4, func() (Entry[int], error) {
		mu.Lock()
		builds++
		mu.Unlock()
		e, step := pacedEntry(3)
		close(step)
		return e, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewQueue(4, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := Controller{ShedStart: 4, ShedFull: 16, MinFactor: 0.25}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			if err := q.Acquire(ctx); err != nil {
				t.Error(err)
				return
			}
			defer q.Release()
			e, err := p.Get(ctx)
			if err != nil {
				t.Error(err)
				return
			}
			deadline := ctrl.Scale(ctx, time.Duration(g%3)*50*time.Millisecond, q.Depth())
			res, err := Run(ctx, e, deadline, nil)
			if err != nil {
				t.Error(err)
				return
			}
			if res.Snapshot.Version == 0 {
				t.Errorf("empty snapshot delivered: %+v", res)
			}
			if err := p.Put(e); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if builds > 8 {
		t.Fatalf("built %d automata for 16 requests at concurrency 4", builds)
	}
}
