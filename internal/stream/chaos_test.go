package stream

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"fairtask/internal/fault"
	"fairtask/internal/obs"
	"fairtask/internal/platform"
)

// liveTask returns a task on a delivery point backing the current
// equilibrium, so re-pricing it is game-visible (a point unreachable before
// its expiry belongs to no candidate, and re-pricing it is a correct no-op).
func liveTask(t *testing.T, eng *Engine) int {
	t.Helper()
	snap := eng.Snapshot()
	for _, r := range snap.Assignment.Routes {
		for _, p := range r {
			if len(snap.Instance.Points[p].Tasks) > 0 {
				return snap.Instance.Points[p].Tasks[0].ID
			}
		}
	}
	t.Fatal("no assigned point with tasks")
	return 0
}

// TestResolveFailpointColdFallback arms the stream.resolve failpoint for
// one hit: the warm resolve is refused mid-delta, the engine degrades to an
// audited cold solve through the platform ladder, the batch still commits
// bit-exactly, and the next delta is warm again.
func TestResolveFailpointColdFallback(t *testing.T) {
	defer fault.DisarmAll()
	in := gmInstance(t, 11, 60, 10, 24)
	reg := obs.NewRegistry()
	opt := Options{VDPS: testVDPS, Metrics: obs.NewStreamMetrics(reg)}
	opt.Game.Seed = 11
	eng, err := New(context.Background(), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	taskID := liveTask(t, eng)

	fault.Lookup("stream.resolve").Arm(fault.Behavior{Kind: fault.KindError, Count: 1})
	d := Delta{Seq: 1, Kind: RewardChanged, TaskID: taskID, Reward: 3}
	res, err := eng.Apply(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resolve != ResolveCold {
		t.Fatalf("resolve = %q, want %q", res.Resolve, ResolveCold)
	}
	if res.Audit == nil {
		t.Fatal("cold fallback must carry an audit report")
	}
	if len(res.Audit.Violations) != 0 {
		t.Fatalf("audit violations on fallback: %+v", res.Audit.Violations)
	}
	if res.Degraded != "" {
		t.Fatalf("exact-only fallback reported rung %q", res.Degraded)
	}
	replayed := in.Clone()
	if err := Replay(replayed, d); err != nil {
		t.Fatal(err)
	}
	assertBitExact(t, eng.Snapshot(), coldReference(t, replayed, FGT, 11))
	if got := opt.Metrics.ResolveCold.Value(); got != 1 {
		t.Fatalf("fta_stream_resolves_total{kind=cold} = %d, want 1", got)
	}

	// The failpoint is spent: the next delta takes the warm path and stays
	// pinned.
	d2 := Delta{Seq: 2, Kind: RewardChanged, TaskID: taskID, Reward: 0.5}
	res, err = eng.Apply(context.Background(), d2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resolve != ResolveWarm {
		t.Fatalf("post-fallback resolve = %q, want %q", res.Resolve, ResolveWarm)
	}
	if err := Replay(replayed, d2); err != nil {
		t.Fatal(err)
	}
	assertBitExact(t, eng.Snapshot(), coldReference(t, replayed, FGT, 11))
}

// TestApplyFailpointRejects arms stream.apply: ingest is refused before any
// mutation, no sequence number is consumed, and the same delta applies
// cleanly once the failpoint is spent.
func TestApplyFailpointRejects(t *testing.T) {
	defer fault.DisarmAll()
	in := gmInstance(t, 12, 30, 6, 12)
	reg := obs.NewRegistry()
	opt := Options{VDPS: testVDPS, Metrics: obs.NewStreamMetrics(reg)}
	opt.Game.Seed = 12
	eng, err := New(context.Background(), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	before := eng.Snapshot()
	d := Delta{Seq: 1, Kind: RewardChanged, TaskID: in.Points[0].Tasks[0].ID, Reward: 2}

	fault.Lookup("stream.apply").Arm(fault.Behavior{Kind: fault.KindError, Count: 1})
	if _, err := eng.Apply(context.Background(), d); err == nil {
		t.Fatal("armed stream.apply did not reject")
	} else {
		var fe *fault.Error
		if !errors.As(err, &fe) {
			t.Fatalf("rejection not a fault error: %v", err)
		}
	}
	after := eng.Snapshot()
	if after.Seq != before.Seq || !reflect.DeepEqual(after.Summary.Payoffs, before.Summary.Payoffs) {
		t.Fatal("rejected apply mutated engine state")
	}
	if got := opt.Metrics.Rejected.Value(); got != 1 {
		t.Fatalf("fta_stream_rejected_total = %d, want 1", got)
	}
	if _, err := eng.Apply(context.Background(), d); err != nil {
		t.Fatalf("retry after spent failpoint: %v", err)
	}
}

// TestLadderDegradedFallback disables the exact rung, so a mid-delta
// failure degrades through the PR 5 ladder to a sampled solve — audited,
// labeled, and self-healing: the next warm delta re-establishes the exact
// bit-pinned equilibrium.
func TestLadderDegradedFallback(t *testing.T) {
	defer fault.DisarmAll()
	in := gmInstance(t, 13, 60, 10, 24)
	opt := Options{
		VDPS:    testVDPS,
		Degrade: &platform.Degrade{ExactBudget: -1},
	}
	opt.Game.Seed = 13
	eng, err := New(context.Background(), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	taskID := liveTask(t, eng)

	fault.Lookup("stream.resolve").Arm(fault.Behavior{Kind: fault.KindError, Count: 1})
	d := Delta{Seq: 1, Kind: RewardChanged, TaskID: taskID, Reward: 2.5}
	res, err := eng.Apply(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resolve != ResolveCold {
		t.Fatalf("resolve = %q, want %q", res.Resolve, ResolveCold)
	}
	if res.Degraded == "" {
		t.Fatal("exact rung disabled, expected a degraded rung label")
	}
	if res.Audit == nil || len(res.Audit.Violations) != 0 {
		t.Fatalf("degraded fallback must pass its audit, got %+v", res.Audit)
	}
	// Self-healing: the next warm resolve lands back on the exact pin.
	d2 := Delta{Seq: 2, Kind: RewardChanged, TaskID: taskID, Reward: 1.5}
	res, err = eng.Apply(context.Background(), d2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resolve != ResolveWarm {
		t.Fatalf("post-fallback resolve = %q, want %q", res.Resolve, ResolveWarm)
	}
	replayed := in.Clone()
	if err := Replay(replayed, d, d2); err != nil {
		t.Fatal(err)
	}
	assertBitExact(t, eng.Snapshot(), coldReference(t, replayed, FGT, 13))
}

// TestChaosColdFallbackAuditsEngineEpsilon pins the cold fallback's audit
// parameters to the engine's own FGT options: with a utility threshold of
// 100 the dynamics stop far from a strict Nash equilibrium, which the
// certificate must accept because it is checked at the solver's threshold,
// not the audit default.
func TestChaosColdFallbackAuditsEngineEpsilon(t *testing.T) {
	defer fault.DisarmAll()
	in := gmInstance(t, 14, 60, 10, 24)
	opt := Options{VDPS: testVDPS}
	opt.Game.Seed = 14
	opt.Game.EpsilonUtility = 100
	eng, err := New(context.Background(), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	taskID := liveTask(t, eng)

	fault.Lookup("stream.resolve").Arm(fault.Behavior{Kind: fault.KindError, Count: 1})
	res, err := eng.Apply(context.Background(), Delta{Seq: 1, Kind: RewardChanged, TaskID: taskID, Reward: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Resolve != ResolveCold {
		t.Fatalf("resolve = %q, want %q", res.Resolve, ResolveCold)
	}
	if res.Audit == nil || !res.Audit.OK() {
		t.Fatalf("cold fallback audited with the wrong threshold: %+v", res.Audit)
	}
}

// TestChaosColdFallbackWorkerless drains the roster to zero workers while
// the resolve failpoint is armed: the cold fallback must commit the empty
// equilibrium (the solvers themselves reject workerless instances).
func TestChaosColdFallbackWorkerless(t *testing.T) {
	defer fault.DisarmAll()
	in := gmInstance(t, 15, 20, 1, 8)
	opt := Options{VDPS: testVDPS}
	opt.Game.Seed = 15
	eng, err := New(context.Background(), in, opt)
	if err != nil {
		t.Fatal(err)
	}

	fault.Lookup("stream.resolve").Arm(fault.Behavior{Kind: fault.KindError, Count: 1})
	res, err := eng.Apply(context.Background(), Delta{Seq: 1, Kind: WorkerOffline, WorkerID: in.Workers[0].ID})
	if err != nil {
		t.Fatal(err)
	}
	if res.Resolve != ResolveCold {
		t.Fatalf("resolve = %q, want %q", res.Resolve, ResolveCold)
	}
	if snap := eng.Snapshot(); len(snap.Instance.Workers) != 0 || len(snap.Summary.Payoffs) != 0 || !snap.Converged {
		t.Fatalf("cold fallback did not commit the empty equilibrium: %+v", snap)
	}
}
