package conform

import (
	"flag"
	"reflect"
	"testing"
)

var (
	seedFlag = flag.Uint64("conform.seed", 0, "run only this schedule seed (0 = full sweep)")
	nFlag    = flag.Int("conform.n", 0, "override the number of seeded schedules per app")
)

// schedulesPerApp is the exploration budget: the full sweep runs at least
// 100 seeded schedules per app (the repo's conformance bar); -short keeps
// the PR/CI budget small.
func schedulesPerApp(t *testing.T) int {
	if *nFlag > 0 {
		return *nFlag
	}
	if testing.Short() {
		return 12
	}
	return 100
}

// explore runs the app's seeded sweep, reporting the first invariant
// violation with its seed and a shrunk minimal schedule so the failure is
// reproducible with -conform.seed.
func explore(t *testing.T, app App) {
	t.Helper()
	if *seedFlag != 0 {
		runSeed(t, app, *seedFlag)
		return
	}
	n := schedulesPerApp(t)
	for i := 0; i < n; i++ {
		// Seed 0 is the -conform.seed sentinel; start at 1.
		runSeed(t, app, uint64(i)+1)
	}
}

func runSeed(t *testing.T, app App, seed uint64) {
	t.Helper()
	s := DeriveSchedule(app, seed)
	res := RunOne(app, s)
	if !res.Failed() {
		return
	}
	shrunk := Shrink(app, s)
	// The reproduce line must be copy-pasteable verbatim: t.Name() is the
	// exact -run pattern (app.Name() is lowercase and matches no test).
	t.Fatalf("conform: %s violated invariants under seed %d\nviolations:\n%s\nschedule: %s\nshrunk:   %s\nreproduce: go test ./internal/conform -run '^%s$' -conform.seed=%d",
		app.Name(), seed, res.FailureSummary(), s, shrunk, t.Name(), seed)
}

// TestConformConv2D .. TestConformSyncPipe: the seeded schedule sweep per
// app. Named so `go test -run Conform` selects exactly the conformance
// suite (the nightly CI profile runs it with -count=3 -race).
func TestConformConv2D(t *testing.T)   { t.Parallel(); explore(t, &conv2dApp{}) }
func TestConformDebayer(t *testing.T)  { t.Parallel(); explore(t, &debayerApp{}) }
func TestConformHisteq(t *testing.T)   { t.Parallel(); explore(t, &histeqApp{}) }
func TestConformKmeans(t *testing.T)   { t.Parallel(); explore(t, &kmeansApp{}) }
func TestConformDWT53(t *testing.T)    { t.Parallel(); explore(t, &dwt53App{}) }
func TestConformSyncPipe(t *testing.T) { t.Parallel(); explore(t, &syncPipeApp{}) }

// reuseCycles is how many consecutive checkout cycles the reset-reuse
// sweep drives one built instance through: two interrupted requests under
// the schedule's own stop point, then a final uninterrupted one that must
// still reach the bit-exact precise output (the serving runtime's
// acceptance bar is ≥ 2 consecutive reset-reuse cycles).
const reuseCycles = 3

// exploreReuse is the warm-pool counterpart of explore: each seeded
// schedule runs through reuseCycles checkouts of a single instance via
// RunReuse. Half the single-run budget keeps the added wall-clock modest
// while still permuting every configuration dimension.
func exploreReuse(t *testing.T, app App) {
	t.Helper()
	if *seedFlag != 0 {
		runReuseSeed(t, app, *seedFlag)
		return
	}
	n := (schedulesPerApp(t) + 1) / 2
	for i := 0; i < n; i++ {
		runReuseSeed(t, app, uint64(i)+1)
	}
}

func runReuseSeed(t *testing.T, app App, seed uint64) {
	t.Helper()
	s := DeriveSchedule(app, seed)
	results := RunReuse(app, s, reuseCycles)
	for _, res := range results {
		if res.Failed() {
			t.Fatalf("conform: %s violated invariants on reuse cycle %d/%d under seed %d\nviolations:\n%s\nschedule: %s\nreproduce: go test ./internal/conform -run '^%s$' -conform.seed=%d",
				app.Name(), res.Cycle, reuseCycles, seed, res.FailureSummary(), res.Schedule, t.Name(), seed)
		}
	}
	last := results[len(results)-1]
	if last.Cycle != reuseCycles {
		t.Fatalf("conform: %s reuse sweep under seed %d stopped at cycle %d/%d without a violation",
			app.Name(), seed, last.Cycle, reuseCycles)
	}
	if !last.Completed {
		t.Fatalf("conform: %s final reuse cycle under seed %d did not reach the precise output", app.Name(), seed)
	}
}

// TestConformReset*: the reset-reuse sweep per app. The names match the
// nightly profile's `-run Conform` selection, so pooled automata are swept
// by the same seeded invariant checks as fresh ones.
func TestConformResetConv2D(t *testing.T)   { t.Parallel(); exploreReuse(t, &conv2dApp{}) }
func TestConformResetDebayer(t *testing.T)  { t.Parallel(); exploreReuse(t, &debayerApp{}) }
func TestConformResetHisteq(t *testing.T)   { t.Parallel(); exploreReuse(t, &histeqApp{}) }
func TestConformResetKmeans(t *testing.T)   { t.Parallel(); exploreReuse(t, &kmeansApp{}) }
func TestConformResetDWT53(t *testing.T)    { t.Parallel(); exploreReuse(t, &dwt53App{}) }
func TestConformResetSyncPipe(t *testing.T) { t.Parallel(); exploreReuse(t, &syncPipeApp{}) }

// TestScheduleDerivationDeterministic pins the reproducibility contract:
// the same (app, seed) pair must always expand to the same schedule, or a
// reported seed would not reproduce its failure.
func TestScheduleDerivationDeterministic(t *testing.T) {
	for _, app := range Apps() {
		for seed := uint64(1); seed <= 50; seed++ {
			a := DeriveSchedule(app, seed)
			b := DeriveSchedule(app, seed)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s seed %d: derivation not deterministic:\n%s\n%s", app.Name(), seed, a, b)
			}
		}
	}
}

// TestScheduleDerivationCoversDimensions checks the explorer actually
// reaches every point of the configuration lattice it claims to permute:
// across a modest seed range each app must see both snapshot modes, all
// publish policies, interrupts and completions, and at least one fault
// injection where supported.
func TestScheduleDerivationCoversDimensions(t *testing.T) {
	for _, app := range Apps() {
		feats := app.Features()
		policies := map[string]bool{}
		snapshots := map[string]bool{}
		stops := map[StopKind]bool{}
		faults := false
		for seed := uint64(1); seed <= 200; seed++ {
			s := DeriveSchedule(app, seed)
			policies[policyName(s.Policy)] = true
			snapshots[snapshotName(s.Snapshot)] = true
			stops[s.Stop.Kind] = true
			if s.StorageUpset > 0 || s.EdgeDelay > 0 || len(s.Pauses) > 0 || len(s.Delays) > 0 {
				faults = true
			}
		}
		if feats.Policies && len(policies) != 3 {
			t.Errorf("%s: explored policies %v, want all three", app.Name(), policies)
		}
		if feats.Snapshots && len(snapshots) != 2 {
			t.Errorf("%s: explored snapshot modes %v, want both", app.Name(), snapshots)
		}
		for _, k := range []StopKind{StopNone, StopAtPublish, StopAtCheckpoint} {
			if !stops[k] {
				t.Errorf("%s: stop kind %v never explored", app.Name(), k)
			}
		}
		if !faults {
			t.Errorf("%s: no schedule injected any fault", app.Name())
		}
	}
}

// TestConformStorageFaultDeterminism pins the reproducibility of the
// drowsy-storage fault path: two runs of the same seeded faulty schedule
// must corrupt identically and publish bit-identical final outputs (the
// seeded fault stream follows the stage's deterministic read order).
func TestConformStorageFaultDeterminism(t *testing.T) {
	t.Parallel()
	app := &conv2dApp{}
	s := Schedule{Seed: 97, Workers: 3, StorageUpset: 1e-3}
	var sums []uint64
	for i := 0; i < 2; i++ {
		res := RunOne(app, s)
		if res.Failed() {
			t.Fatalf("faulty run violated invariants:\n%s", res.FailureSummary())
		}
		if !res.Completed {
			t.Fatal("faulty run did not complete")
		}
		_, sum, final, ok := lastOf(t, app, s)
		if !ok || !final {
			t.Fatal("no final snapshot")
		}
		sums = append(sums, sum)
	}
	if sums[0] != sums[1] {
		t.Fatalf("storage-faulted final output not deterministic: %016x vs %016x", sums[0], sums[1])
	}
}

// lastOf runs the schedule once and returns the sink's terminal state.
func lastOf(t *testing.T, app App, s Schedule) (version uint64, sum uint64, final, ok bool) {
	t.Helper()
	col := &Collector{}
	env := &Env{Col: col}
	inst, err := app.Build(env, s)
	if err != nil {
		t.Fatal(err)
	}
	sched := newChaosScheduler(inst.Automaton, app.Stages(), s)
	inst.Automaton.SetHooks(sched.hooks())
	if err := inst.Automaton.Start(t.Context()); err != nil {
		t.Fatal(err)
	}
	if err := inst.Automaton.Wait(); err != nil {
		t.Fatal(err)
	}
	v, sm, fin, has := inst.Sink.Last()
	return uint64(v), sm, fin, has
}
