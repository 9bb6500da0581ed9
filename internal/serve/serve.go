// Package serve is the deadline-aware serving runtime over internal/core:
// it turns the paper's interrupt-anywhere property (§III-C) into the
// contract a loaded server needs — under pressure, degrade accuracy, not
// availability.
//
// The package has three independent pieces, composed by the caller
// (cmd/anytimed wires all three):
//
//   - Pool: warm automaton pools. core.Automaton.Reset rewinds an
//     automaton's per-run state without reallocating stages, permutation
//     tables, tile rings, or arenas, so a pool amortizes construction cost
//     across requests: check an entry out with Get, run it, check it back
//     in with Put.
//
//   - Run: the serving contract, the paper's two stopping triggers on one
//     run (§III-A). Run executes a checked-out automaton until its
//     deadline fires or an optional acceptance predicate admits a
//     published snapshot, whichever comes first, and returns the best
//     published snapshot — never an error merely because time ran out,
//     because an anytime automaton always holds a valid approximation once
//     its first version is published. The predicate sees versions by
//     polling, not through buffer observers (observers are permanent, so a
//     pooled buffer must not accumulate per-request callbacks).
//
//   - Queue / Controller: admission control. Queue is a bounded FIFO-fair
//     concurrency limiter — waiters are served strictly in arrival order
//     and excess load is rejected immediately rather than queued without
//     bound. Controller maps queue depth to a shed factor that the caller
//     applies to each request's deadline (or target accuracy), trading
//     per-request accuracy for throughput as load rises and restoring it
//     as load drains.
//
// All observability is routed through the optional *Hooks parameter;
// internal/telemetry.ServeHooks binds it to the process metrics registry.
package serve

import (
	"context"
	"errors"
	rtrace "runtime/trace"
	"time"

	"anytime/internal/core"
	"anytime/internal/reqtrace"
)

// ErrNoOutput is returned when a run ends without a single published
// snapshot to deliver (for example, the client disconnected before the
// automaton published its first version).
var ErrNoOutput = errors.New("serve: run produced no output")

// Entry is one pooled automaton together with the output buffer requests
// read their snapshots from. Apps expose constructors returning exactly
// this shape (an automaton plus its terminal buffer); intermediate buffers
// stay internal to the app.
type Entry[T any] struct {
	Automaton *core.Automaton
	Out       *core.Buffer[T]
	// Slot, when non-nil, is the entry's request-trace binding point:
	// instrumentation attached once at construction (buffer publish
	// observers, OnReset hooks) reports into whichever trace is currently
	// bound to it. The serving caller Binds the request's trace at checkout
	// and Unbinds after Put; a nil Slot (tracing disabled) costs each
	// observer one pointer check.
	Slot *reqtrace.Slot
}

// Result is the outcome of a Run: the delivered snapshot and how the run
// ended.
type Result[T any] struct {
	// Snapshot is the delivered output. Snapshot.Final reports whether it
	// is the precise output; Snapshot.Version is its accuracy rank within
	// the run.
	Snapshot core.Snapshot[T]
	// Interrupted reports that the delivered snapshot is not the precise
	// output (!Snapshot.Final): the deadline fired or the acceptance
	// predicate admitted an early snapshot.
	Interrupted bool
	// Elapsed is the wall time from Start to delivery.
	Elapsed time.Duration
}

// Run executes a checked-out entry under the serving contract and returns
// the snapshot it delivers. The run ends at the first of:
//
//   - the automaton finishing: its precise output is delivered (with
//     neither a deadline nor a predicate, this is the knob-less path,
//     bit-exact with the app's baseline);
//   - deadline > 0 firing: the automaton is stopped and the newest
//     published snapshot delivered. If nothing has been published yet, Run
//     waits for the first version instead of failing — an admitted anytime
//     request never times out empty-handed;
//   - the optional accept predicate admitting a published snapshot: the
//     automaton is stopped and that snapshot delivered;
//   - ctx being cancelled (client disconnect): the automaton is stopped
//     and ctx.Err() returned.
//
// accept is optional (at most one predicate; it is variadic so callers
// without one keep the four-argument form). It runs on the calling
// goroutine, once per version Run observes. A warm-start seed
// (core.Buffer.Seed) is not the run's own work and is never offered to it:
// a delivery the predicate admits is always newer than the seed.
// Versions are polled (Buffer.Subscribe), not observed through OnPublish,
// because observers are permanent and a pooled buffer serves many
// requests; buffers are latest-wins, so a fast pipeline may publish
// several versions between polls. accept must not retain the snapshot
// value if the app publishes aliased ring images (pix.SnapshotTiles).
// Without a predicate (or with a nil one) Run never wakes per version.
//
// A stage failure is returned as an error. The caller owns the entry
// throughout and must still check it back into its pool afterwards; Run
// always leaves the automaton stopped or finished, ready for Reset.
func Run[T any](ctx context.Context, e Entry[T], deadline time.Duration, h *Hooks, accept ...func(core.Snapshot[T]) bool) (Result[T], error) {
	tr := reqtrace.FromContext(ctx)
	var region *rtrace.Region
	if tr != nil {
		region = rtrace.StartRegion(ctx, "anytime.run")
	}
	var pred func(core.Snapshot[T]) bool
	if len(accept) > 0 {
		pred = accept[0]
	}
	start := time.Now()
	snap, err := await(ctx, e, deadline, pred, tr)
	if region != nil {
		region.End()
	}
	if err != nil {
		tr.Error(err.Error())
		return Result[T]{}, err
	}
	res := Result[T]{Snapshot: snap, Interrupted: !snap.Final, Elapsed: time.Since(start)}
	if h != nil && h.Deliver != nil {
		h.Deliver(res.Interrupted, snap.Final, res.Elapsed)
	}
	tr.RunFinish(runOutcome(e.Automaton.Err()), res.Elapsed)
	return res, nil
}

// await starts the automaton and blocks until the first of Run's stop
// conditions, returning the snapshot to deliver with the automaton
// stopped or finished.
func await[T any](ctx context.Context, e Entry[T], deadline time.Duration, accept func(core.Snapshot[T]) bool, tr *reqtrace.Trace) (core.Snapshot[T], error) {
	var none core.Snapshot[T]
	var seeded core.Version
	if sn, ok := e.Out.Peek(); ok {
		seeded = sn.Version
	}
	if err := e.Automaton.Start(ctx); err != nil {
		return none, err
	}
	tr.RunStart(deadline)
	done := e.Automaton.Done()
	var fired <-chan time.Time
	if deadline > 0 {
		timer := time.NewTimer(deadline)
		defer timer.Stop()
		fired = timer.C
	}
	// versions carries published snapshots only while something needs
	// them: the predicate, or a deadline that fired before the first
	// publish. The deadline-only path never subscribes unless it has to.
	var versions <-chan core.Snapshot[T]
	var unsubscribe func()
	defer func() {
		if unsubscribe != nil {
			unsubscribe()
		}
	}()
	if accept != nil {
		versions, unsubscribe = subscribe(ctx, e.Out)
	}
	expired := false
	for {
		select {
		case <-done:
			if err := ctx.Err(); err != nil {
				return none, err
			}
			return latest(e)
		case <-ctx.Done():
			e.Automaton.Stop()
			return none, ctx.Err()
		case <-fired:
			tr.DeadlineFired(deadline)
			if _, ok := e.Out.Peek(); ok {
				return latest(e)
			}
			// Contract: deliver *something*. Wait for the first version,
			// bounded by the client's context and the automaton's end.
			expired, fired = true, nil
			if versions == nil {
				versions, unsubscribe = subscribe(ctx, e.Out)
			}
		case snap, ok := <-versions:
			switch {
			case !ok:
				versions = nil // the subscription ended at the final version; done follows
			case expired:
				return latest(e)
			case snap.Version <= seeded:
				// The warm-start seed itself: nothing this run refined.
			case snap.Final || accept(snap):
				e.Automaton.Stop()
				return snap, nil
			}
		}
	}
}

// subscribe polls buf's published versions until the returned stop runs.
// stop returns only once the poller has exited: a pooled buffer is reused
// by the next request, so the poller must not outlive the run.
func subscribe[T any](ctx context.Context, buf *core.Buffer[T]) (<-chan core.Snapshot[T], func()) {
	subCtx, cancel := context.WithCancel(ctx)
	versions := buf.Subscribe(subCtx)
	return versions, func() {
		cancel()
		for range versions {
		}
	}
}

// latest stops the automaton and returns its newest published snapshot,
// or its stage failure.
func latest[T any](e Entry[T]) (core.Snapshot[T], error) {
	e.Automaton.Stop()
	if err := e.Automaton.Err(); err != nil && !errors.Is(err, core.ErrStopped) {
		return core.Snapshot[T]{}, err
	}
	snap, ok := e.Out.Latest()
	if !ok {
		return core.Snapshot[T]{}, ErrNoOutput
	}
	return snap, nil
}

// runOutcome folds an automaton's terminal error into the outcome
// vocabulary the telemetry layer uses.
func runOutcome(err error) string {
	switch {
	case err == nil:
		return "precise"
	case errors.Is(err, core.ErrStopped):
		return "stopped"
	default:
		return "failed"
	}
}
