package core

import (
	"fmt"
	"runtime"
	"time"
)

// This file provides the three stage-loop shapes of the paper:
//
//   - Iterative (§III-B1): re-execute the computation at increasing
//     accuracy; each pass overwrites the previous output; the last pass is
//     the precise function.
//   - Diffusive (§III-B2): apply permuted updates to a working output;
//     every update contributes to the final result, so no work is redundant.
//   - AsyncConsume (§III-C1): a child stage that recomputes on whichever
//     parent snapshot is current, always eventually running on the final
//     one.
//
// The synchronous pipeline's update stream (§III-C2) lives in stream.go.

// Iterative runs the intermediate computations f_1 … f_n in order,
// publishing each result to out; the final pass is published as the precise
// output. Each pass must be a pure function of its captured inputs
// (Property 1).
func Iterative[T any](c *Context, out *Buffer[T], passes []func() (T, error)) error {
	if len(passes) == 0 {
		return fmt.Errorf("core: iterative stage %q has no passes", c.Name())
	}
	for i, pass := range passes {
		if err := c.Checkpoint(); err != nil {
			return err
		}
		v, err := pass()
		if err != nil {
			return err
		}
		if _, err := out.Publish(v, i == len(passes)-1); err != nil {
			return err
		}
	}
	return nil
}

// PublishPolicy selects when a diffusive stage constructs and publishes a
// round snapshot. Snapshot construction is pure overhead relative to the
// precise computation (paper §IV-C), so how often it runs decides the
// automaton's cost of being anytime.
type PublishPolicy int

const (
	// PublishEveryRound publishes after every round of Granularity updates
	// — the paper's default granularity model (§III-B2).
	PublishEveryRound PublishPolicy = iota
	// PublishOnDemand skips snapshot construction while nobody has consumed
	// the previous version (no Latest/WaitNewer reader and no observer):
	// the consumer "processes whichever output happens to be in the buffer"
	// (§III-C1), so refreshing an unread buffer buys nothing. A blocked
	// reader or a consumed snapshot re-enables publishing at the next round
	// boundary, and the final snapshot is always published.
	PublishOnDemand
	// PublishAdaptive widens the effective publish interval until snapshot
	// construction stays within PublishBudget as a fraction of stage time —
	// the granularity auto-tuning of §IV-C1 aimed at a fixed overhead
	// target instead of a fixed update count.
	PublishAdaptive
)

// DefaultPublishBudget is the adaptive policy's snapshot-overhead target
// when RoundConfig.PublishBudget is zero: publishing may consume at most
// this fraction of the stage's wall time.
const DefaultPublishBudget = 0.1

// RoundConfig tunes a diffusive stage's execution.
type RoundConfig struct {
	// Granularity is the number of updates applied between successive
	// publish opportunities. It controls how early and how often
	// approximate outputs become visible. Zero selects total/32 (at least
	// 1).
	Granularity int
	// Policy selects when round snapshots are constructed and published.
	// The zero value is PublishEveryRound.
	Policy PublishPolicy
	// PublishBudget is PublishAdaptive's target ceiling for the fraction of
	// stage time spent building and publishing snapshots, in (0, 1). Zero
	// selects DefaultPublishBudget. Ignored by the other policies.
	PublishBudget float64
}

func (cfg RoundConfig) withDefaults(total int) (RoundConfig, error) {
	if cfg.Granularity < 0 {
		return cfg, fmt.Errorf("core: negative round config %+v", cfg)
	}
	if cfg.Policy < PublishEveryRound || cfg.Policy > PublishAdaptive {
		return cfg, fmt.Errorf("core: unknown publish policy %d", cfg.Policy)
	}
	if cfg.PublishBudget < 0 || cfg.PublishBudget >= 1 {
		return cfg, fmt.Errorf("core: publish budget %v out of range [0, 1)", cfg.PublishBudget)
	}
	if cfg.Granularity == 0 {
		cfg.Granularity = total / 32
		if cfg.Granularity < 1 {
			cfg.Granularity = 1
		}
	}
	if cfg.PublishBudget == 0 {
		cfg.PublishBudget = DefaultPublishBudget
	}
	return cfg, nil
}

// Diffusive executes a diffusive anytime stage: total update steps applied
// in rounds, publishing an approximate snapshot after every round and the
// precise output after the last.
//
// apply(pos) performs update step pos (0 <= pos < total); positions are
// executed exactly once, in ascending order, in rounds of Granularity
// consecutive positions on the stage goroutine. snapshot(processed) is
// called between rounds and returns the value to publish after the first
// `processed` updates — typically a clone, possibly weighted/normalized
// for non-idempotent reductions (§III-B2).
func Diffusive[T any](c *Context, out *Buffer[T], total int, apply func(pos int) error, snapshot func(processed int) (T, error), cfg RoundConfig) error {
	return DiffusivePass(c, out, total, apply, snapshot, cfg, true)
}

// DiffusivePass is Diffusive with control over whether the pass's last
// snapshot is published as the buffer's final output. An anytime child
// stage in an asynchronous pipeline runs one full diffusive pass per parent
// snapshot it consumes (§III-C1, g(F_i) with g itself anytime); only the
// pass over the parent's final snapshot may mark the child's buffer final,
// so intermediate passes run with markFinal = false.
func DiffusivePass[T any](c *Context, out *Buffer[T], total int, apply func(pos int) error, snapshot func(processed int) (T, error), cfg RoundConfig, markFinal bool) error {
	return diffusiveRun(c, out, total,
		func(lo, hi int) error { return applySpan(lo, hi, apply) },
		snapshot, cfg, markFinal)
}

// DiffusiveBatch is DiffusivePass for stages whose per-update work is tiny
// (a table lookup, a histogram increment): apply receives a contiguous
// range [lo, hi) of update positions and iterates it directly, avoiding a
// function call per update. Each round reaches apply as one range.
func DiffusiveBatch[T any](c *Context, out *Buffer[T], total int, apply func(lo, hi int) error, snapshot func(processed int) (T, error), cfg RoundConfig, markFinal bool) error {
	return diffusiveRun(c, out, total, apply, snapshot, cfg, markFinal)
}

// checkpointStride is the minimum number of updates the diffusive round
// loop aims to apply between successive Checkpoint calls. When Granularity
// is smaller than this, consecutive rounds are executed as one batch under
// a single checkpoint, amortizing the gate's lock and the hook dispatch
// over the batch while leaving every round boundary's publish decision
// untouched: the published version sequence is bit-identical to unbatched
// execution, only the Checkpoint hook rate coarsens.
//
// Pause/stop responsiveness does NOT coarsen with the batch: between the
// batch's rounds the loop polls a lock-free pause hint and the context's
// done channel (a few nanoseconds against a full Checkpoint's two lock
// round-trips) and breaks out to a real Checkpoint as soon as either
// fires, so an automaton still answers Stop/Pause within one round of
// updates plus one snapshot, exactly as it did when every round
// checkpointed.
const checkpointStride = 4096

// diffusiveRun is the shared round loop of the diffusive stage shapes: it
// applies rounds of Granularity contiguous positions through run, on the
// stage goroutine, and publishes snapshots as the round config's publish
// policy dictates. A skipped round's updates are simply covered by the next
// snapshot that does get built — diffusive updates are cumulative, so every
// published version reflects all updates applied so far regardless of how
// many publish opportunities were skipped.
//
// Rounds are grouped into checkpoint batches (see checkpointStride): the
// loop checkpoints once per batch, then runs the batch's rounds with a
// publish opportunity at every round boundary exactly as before.
func diffusiveRun[T any](c *Context, out *Buffer[T], total int, run func(lo, hi int) error, snapshot func(processed int) (T, error), cfg RoundConfig, markFinal bool) error {
	if total < 0 {
		return fmt.Errorf("core: diffusive stage %q has negative total %d", c.Name(), total)
	}
	cfg, err := cfg.withDefaults(total)
	if err != nil {
		return err
	}
	if total == 0 {
		v, err := snapshot(0)
		if err != nil {
			return err
		}
		_, err = out.Publish(v, markFinal)
		return err
	}
	batchRounds := 1
	if cfg.Granularity < checkpointStride {
		batchRounds = (checkpointStride + cfg.Granularity - 1) / cfg.Granularity
	}
	// interrupted is the cheap intra-batch poll: a lock-free pause hint and
	// a non-blocking read of the done channel. It never blocks and never
	// errs — it only decides whether to cut the batch short and let the
	// next Checkpoint give the authoritative (blocking) answer.
	stop := c.ctx.Done()
	interrupted := func() bool {
		if c.a.gate.pauseHint() {
			return true
		}
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	gov := publishGovernor{cfg: cfg}
	for done := 0; done < total; {
		if err := c.Checkpoint(); err != nil {
			return err
		}
		// One cooperative yield per checkpoint batch. Per-round checkpoints
		// used to create incidental scheduling points (lock handoffs, spawns)
		// every Granularity updates; batching removed them, which on a
		// saturated P let a stage monopolize the processor for a full async
		// preemption quantum and serialize an entire serving burst. The
		// explicit yield bounds that to one batch (~checkpointStride updates)
		// at a cost of one scheduler call per batch.
		runtime.Gosched()
		for r := 0; r < batchRounds && done < total; r++ {
			n := cfg.Granularity
			if done+n > total {
				n = total - done
			}
			gov.beginApply()
			if err := run(done, done+n); err != nil {
				return err
			}
			gov.endApply()
			done += n
			final := done == total
			if publish := final || gov.shouldPublish(out); publish {
				gov.beginPublish()
				v, err := snapshot(done)
				if err != nil {
					return err
				}
				if _, err := out.Publish(v, markFinal && final); err != nil {
					return err
				}
				gov.endPublish()
			}
			if interrupted() {
				break
			}
		}
	}
	return nil
}

// publishGovernor implements the publish policies for the diffusive round
// loop. It only reads the clock under PublishAdaptive, so the default
// policy's round loop stays timestamp-free.
type publishGovernor struct {
	cfg         RoundConfig
	applyTime   time.Duration
	publishTime time.Duration
	mark        time.Time
}

func (g *publishGovernor) timed() bool { return g.cfg.Policy == PublishAdaptive }

func (g *publishGovernor) beginApply() {
	if g.timed() {
		g.mark = time.Now()
	}
}

func (g *publishGovernor) endApply() {
	if g.timed() {
		g.applyTime += time.Since(g.mark)
	}
}

func (g *publishGovernor) beginPublish() {
	if g.timed() {
		g.mark = time.Now()
	}
}

func (g *publishGovernor) endPublish() {
	if g.timed() {
		g.publishTime += time.Since(g.mark)
	}
}

// shouldPublish decides whether this round boundary builds a snapshot (the
// final round always does; the loop never asks about it).
func (g *publishGovernor) shouldPublish(demand interface{ Demanded() bool }) bool {
	switch g.cfg.Policy {
	case PublishOnDemand:
		return demand.Demanded()
	case PublishAdaptive:
		// Publish while cumulative snapshot overhead sits within budget:
		// each (expensive) publish pushes the ratio up, then apply rounds
		// dilute it back under the target, so the cadence self-adjusts to
		// spend ~PublishBudget of stage time on publishing.
		spent := g.applyTime + g.publishTime
		return spent == 0 || float64(g.publishTime) <= g.cfg.PublishBudget*float64(spent)
	default:
		return true
	}
}

// applySpan invokes apply for every position of [lo, hi) in ascending
// order. The body is unrolled eight wide so the loop bookkeeping and error
// checks pipeline across calls — with a small apply this roughly triples
// per-update throughput, which is most of what separated DiffusivePass
// from DiffusiveBatch.
func applySpan(lo, hi int, apply func(pos int) error) error {
	pos := lo
	for ; hi-pos >= 8; pos += 8 {
		if err := apply(pos); err != nil {
			return err
		}
		if err := apply(pos + 1); err != nil {
			return err
		}
		if err := apply(pos + 2); err != nil {
			return err
		}
		if err := apply(pos + 3); err != nil {
			return err
		}
		if err := apply(pos + 4); err != nil {
			return err
		}
		if err := apply(pos + 5); err != nil {
			return err
		}
		if err := apply(pos + 6); err != nil {
			return err
		}
		if err := apply(pos + 7); err != nil {
			return err
		}
	}
	for ; pos < hi; pos++ {
		if err := apply(pos); err != nil {
			return err
		}
	}
	return nil
}

// AsyncConsume implements the child side of an asynchronous pipeline edge:
// it invokes fn on successive snapshots of in, skipping stale intermediates
// (the child "processes whichever output happens to be in the buffer"), and
// always runs fn at least once on the parent's final snapshot before
// returning. fn itself typically publishes — possibly several anytime
// versions — to the child's own buffer, marking its output final only when
// snap.Final is set.
func AsyncConsume[I any](c *Context, in *Buffer[I], fn func(snap Snapshot[I]) error) error {
	var last Version
	for {
		if err := c.Checkpoint(); err != nil {
			return err
		}
		if h := c.hooks; h != nil && h.EdgeWait != nil {
			h.EdgeWait(c.name, in.Name(), last)
		}
		snap, err := in.WaitNewer(c.Context(), last)
		if err != nil {
			return ErrStopped
		}
		last = snap.Version
		if err := fn(snap); err != nil {
			return err
		}
		if snap.Final {
			return nil
		}
	}
}
