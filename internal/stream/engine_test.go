package stream

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"fairtask/internal/dataset"
	"fairtask/internal/evo"
	"fairtask/internal/game"
	"fairtask/internal/geo"
	"fairtask/internal/model"
	"fairtask/internal/platform"
	"fairtask/internal/vdps"
)

// testVDPS keeps candidate spaces tractable across the sweep scales.
var testVDPS = vdps.Options{Epsilon: 1.5}

// gmInstance builds a deterministic Gaussian-mixture instance.
func gmInstance(t testing.TB, seed int64, tasks, workers, points int) *model.Instance {
	t.Helper()
	in, err := dataset.GenerateGM(dataset.GMConfig{
		Seed: seed, Tasks: tasks, Workers: workers, DeliveryPoints: points,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// coldReference solves the instance from scratch with the paper-faithful
// reference dynamics — the pin the warm engine must match bit-for-bit.
func coldReference(t testing.TB, in *model.Instance, alg Algorithm, seed int64) *game.Result {
	t.Helper()
	if len(in.Workers) == 0 {
		return platform.EmptyResult(in)
	}
	g, err := vdps.Generate(in, testVDPS)
	if err != nil {
		t.Fatal(err)
	}
	var res *game.Result
	if alg == IEGT {
		res, err = evo.ReferenceIEGT(context.Background(), g, evo.Options{Seed: seed})
	} else {
		res, err = game.ReferenceFGT(context.Background(), g, game.Options{Seed: seed})
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertBitExact compares the engine's committed equilibrium against a cold
// reference solve: identical routes, bit-identical payoffs, P_dif and
// average, and the same round count (the trajectory pin).
func assertBitExact(t *testing.T, snap Snapshot, ref *game.Result) {
	t.Helper()
	if !reflect.DeepEqual(normRoutes(snap.Assignment.Routes), normRoutes(ref.Assignment.Routes)) {
		t.Fatalf("assignment diverged:\nwarm %v\ncold %v", snap.Assignment.Routes, ref.Assignment.Routes)
	}
	if snap.Summary.Difference != ref.Summary.Difference {
		t.Fatalf("P_dif diverged: warm %v cold %v", snap.Summary.Difference, ref.Summary.Difference)
	}
	if snap.Summary.Average != ref.Summary.Average {
		t.Fatalf("avg payoff diverged: warm %v cold %v", snap.Summary.Average, ref.Summary.Average)
	}
	if !reflect.DeepEqual(snap.Summary.Payoffs, ref.Summary.Payoffs) {
		t.Fatalf("payoffs diverged:\nwarm %v\ncold %v", snap.Summary.Payoffs, ref.Summary.Payoffs)
	}
	if snap.Iterations != ref.Iterations {
		t.Fatalf("round count diverged: warm %d cold %d", snap.Iterations, ref.Iterations)
	}
}

// normRoutes maps empty routes to nil so []int{} and nil compare equal.
func normRoutes(rs []model.Route) []model.Route {
	out := make([]model.Route, len(rs))
	for i, r := range rs {
		if len(r) > 0 {
			out[i] = r
		}
	}
	return out
}

// testStream synthesizes a mixed delta stream for the instance.
func testStream(t testing.TB, in *model.Instance, seed int64) []Delta {
	t.Helper()
	ds, err := GenerateStream(in, StreamConfig{
		Seed: seed, Rate: 25, Duration: 1, Lifetime: 0.8,
		ChurnRate: 3, RepriceRate: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) == 0 {
		t.Fatal("empty stream")
	}
	return ds
}

// TestEngineDifferential is the acceptance sweep: for both algorithms, five
// seeds and three instance scales, the warm engine's equilibrium after
// every checkpoint prefix of a mixed delta stream must be bit-identical to
// a cold reference solve of the independently replayed instance.
func TestEngineDifferential(t *testing.T) {
	scales := []struct{ tasks, workers, points int }{
		{30, 6, 12},
		{60, 10, 24},
		{90, 16, 36},
	}
	for _, alg := range []Algorithm{FGT, IEGT} {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 5; seed++ {
				for si, sc := range scales {
					in := gmInstance(t, seed, sc.tasks, sc.workers, sc.points)
					opt := Options{Algorithm: alg, VDPS: testVDPS}
					opt.Game.Seed, opt.Evo.Seed = seed, seed
					eng, err := New(context.Background(), in, opt)
					if err != nil {
						t.Fatal(err)
					}
					assertBitExact(t, eng.Snapshot(), coldReference(t, in, alg, seed))

					ds := testStream(t, in, seed*101+int64(si))
					for i, d := range ds {
						if _, err := eng.Apply(context.Background(), d); err != nil {
							t.Fatalf("seed %d scale %d delta %d (%s): %v", seed, si, i, d.Kind, err)
						}
						if (i+1)%9 != 0 && i != len(ds)-1 {
							continue
						}
						replayed := in.Clone()
						if err := Replay(replayed, ds[:i+1]...); err != nil {
							t.Fatal(err)
						}
						assertBitExact(t, eng.Snapshot(), coldReference(t, replayed, alg, seed))
					}
				}
			}
		})
	}
}

// TestEngineBatchedEquivalence pins ApplyAll: applying a stream in batches
// commits the same state as applying it delta by delta.
func TestEngineBatchedEquivalence(t *testing.T) {
	in := gmInstance(t, 7, 60, 10, 24)
	ds := testStream(t, in, 7)
	opt := Options{VDPS: testVDPS}
	opt.Game.Seed = 7

	single, err := New(context.Background(), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		if _, err := single.Apply(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	batched, err := New(context.Background(), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(ds); lo += 5 {
		hi := lo + 5
		if hi > len(ds) {
			hi = len(ds)
		}
		if _, err := batched.ApplyAll(context.Background(), ds[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	a, b := single.Snapshot(), batched.Snapshot()
	if !reflect.DeepEqual(a.Assignment, b.Assignment) || !reflect.DeepEqual(a.Summary.Payoffs, b.Summary.Payoffs) {
		t.Fatal("batched apply diverged from per-delta apply")
	}
	if a.Seq != b.Seq {
		t.Fatalf("seq diverged: %d vs %d", a.Seq, b.Seq)
	}
}

// TestBottleneckWorkerOffline takes the max-payoff (bottleneck) worker
// offline and checks the re-equilibrated state against a cold solve of the
// reduced roster.
func TestBottleneckWorkerOffline(t *testing.T) {
	in := gmInstance(t, 3, 60, 10, 24)
	opt := Options{VDPS: testVDPS}
	opt.Game.Seed = 3
	eng, err := New(context.Background(), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	best, bestP := -1, math.Inf(-1)
	for w, p := range snap.Summary.Payoffs {
		if p > bestP {
			best, bestP = w, p
		}
	}
	if bestP <= 0 {
		t.Fatal("no worker with positive payoff in seed instance")
	}
	id := in.Workers[best].ID
	res, err := eng.Apply(context.Background(), Delta{Seq: 1, Kind: WorkerOffline, WorkerID: id})
	if err != nil {
		t.Fatal(err)
	}
	if res.WorkersTouched == 0 {
		t.Fatal("expected the departed worker to count as touched")
	}
	replayed := in.Clone()
	if err := Replay(replayed, Delta{Seq: 1, Kind: WorkerOffline, WorkerID: id}); err != nil {
		t.Fatal(err)
	}
	if len(replayed.Workers) != len(in.Workers)-1 {
		t.Fatal("replay did not drop the worker")
	}
	assertBitExact(t, eng.Snapshot(), coldReference(t, replayed, FGT, 3))
}

// TestExpiryChangeRegenerates expires the task pinning a point's earliest
// expiry mid-stream, which must force a candidate regeneration and still
// land on the cold equilibrium.
func TestExpiryChangeRegenerates(t *testing.T) {
	in := gmInstance(t, 4, 60, 10, 24)
	// Find a point whose earliest expiry is pinned by a unique minimum task.
	target := -1
	var taskID int
	for p := range in.Points {
		tasks := in.Points[p].Tasks
		if len(tasks) < 2 {
			continue
		}
		minI := 0
		for i := range tasks {
			if tasks[i].Expiry < tasks[minI].Expiry {
				minI = i
			}
		}
		unique := true
		for i := range tasks {
			if i != minI && tasks[i].Expiry == tasks[minI].Expiry {
				unique = false
			}
		}
		if unique {
			target, taskID = p, tasks[minI].ID
			break
		}
	}
	if target < 0 {
		t.Skip("no point with a unique minimum-expiry task")
	}
	opt := Options{VDPS: testVDPS}
	opt.Game.Seed = 4
	eng, err := New(context.Background(), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	d := Delta{Seq: 1, Kind: TaskExpired, TaskID: taskID}
	res, err := eng.Apply(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resolve != ResolveRegen {
		t.Fatalf("resolve = %q, want %q", res.Resolve, ResolveRegen)
	}
	replayed := in.Clone()
	if err := Replay(replayed, d); err != nil {
		t.Fatal(err)
	}
	assertBitExact(t, eng.Snapshot(), coldReference(t, replayed, FGT, 4))
}

// TestSequenceRejection pins the deterministic rejection of duplicate and
// out-of-order events: the engine state and sequence cursor are untouched,
// and the same rejection repeats on retry.
func TestSequenceRejection(t *testing.T) {
	in := gmInstance(t, 5, 30, 6, 12)
	opt := Options{VDPS: testVDPS}
	opt.Game.Seed = 5
	eng, err := New(context.Background(), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	ok := Delta{Seq: 5, Kind: RewardChanged, TaskID: in.Points[0].Tasks[0].ID, Reward: 2}
	if _, err := eng.Apply(context.Background(), ok); err != nil {
		t.Fatal(err)
	}
	before := eng.Snapshot()

	for _, bad := range []uint64{5, 3, 0} {
		d := ok
		d.Seq = bad
		for try := 0; try < 2; try++ { // deterministic: same rejection twice
			if _, err := eng.Apply(context.Background(), d); !errors.Is(err, ErrStaleSeq) {
				t.Fatalf("seq %d try %d: err = %v, want ErrStaleSeq", bad, try, err)
			}
		}
	}
	// Mid-batch violations reject the whole batch atomically.
	batch := []Delta{
		{Seq: 6, Kind: RewardChanged, TaskID: in.Points[0].Tasks[0].ID, Reward: 3},
		{Seq: 6, Kind: RewardChanged, TaskID: in.Points[0].Tasks[0].ID, Reward: 4},
	}
	if _, err := eng.ApplyAll(context.Background(), batch); !errors.Is(err, ErrStaleSeq) {
		t.Fatalf("mid-batch: err = %v, want ErrStaleSeq", err)
	}
	after := eng.Snapshot()
	if after.Seq != before.Seq || !reflect.DeepEqual(after.Summary.Payoffs, before.Summary.Payoffs) {
		t.Fatal("rejected events mutated engine state")
	}
	// The cursor did not advance, so the next in-order event still fits.
	if _, err := eng.Apply(context.Background(), Delta{Seq: 6, Kind: RewardChanged, TaskID: in.Points[0].Tasks[0].ID, Reward: 3}); err != nil {
		t.Fatal(err)
	}
}

// TestEntityRejection pins rejections of unknown and duplicate entities.
func TestEntityRejection(t *testing.T) {
	in := gmInstance(t, 6, 30, 6, 12)
	opt := Options{VDPS: testVDPS}
	eng, err := New(context.Background(), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		d    Delta
		want error
	}{
		{Delta{Seq: 1, Kind: TaskExpired, TaskID: 99999}, ErrUnknownTask},
		{Delta{Seq: 1, Kind: RewardChanged, TaskID: 99999, Reward: 1}, ErrUnknownTask},
		{Delta{Seq: 1, Kind: WorkerOffline, WorkerID: 99999}, ErrUnknownWorker},
		{Delta{Seq: 1, Kind: TaskArrived, TaskID: 99999, Point: len(in.Points), Expiry: 1, Reward: 1}, ErrUnknownPoint},
		{Delta{Seq: 1, Kind: TaskArrived, TaskID: in.Points[0].Tasks[0].ID, Point: 0, Expiry: 1, Reward: 1}, ErrDuplicateTask},
		{Delta{Seq: 1, Kind: WorkerOnline, WorkerID: in.Workers[0].ID}, ErrDuplicateWorker},
		{Delta{Seq: 1, Kind: TaskArrived, TaskID: 99999, Point: 0, Expiry: -1, Reward: 1}, ErrBadDelta},
		{Delta{Seq: 1, Kind: "bogus"}, ErrUnknownKind},
	}
	for _, tc := range cases {
		if _, err := eng.Apply(context.Background(), tc.d); !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.d.Kind, err, tc.want)
		}
	}
	if eng.Snapshot().Seq != 0 {
		t.Fatal("rejections consumed sequence numbers")
	}
}

// TestEmptyEngine starts from a workerless instance, brings a worker
// online, and drains back to empty — the roster lifecycle edge.
func TestEmptyEngine(t *testing.T) {
	in := gmInstance(t, 8, 20, 4, 10)
	in.Workers = nil
	opt := Options{VDPS: testVDPS}
	opt.Game.Seed = 8
	eng, err := New(context.Background(), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	if snap := eng.Snapshot(); len(snap.Summary.Payoffs) != 0 || !snap.Converged {
		t.Fatal("empty engine should hold a converged empty equilibrium")
	}
	on := Delta{Seq: 1, Kind: WorkerOnline, WorkerID: 42, Loc: geo.Point{X: 0.5, Y: 0.5}, MaxDP: 2}
	if _, err := eng.Apply(context.Background(), on); err != nil {
		t.Fatal(err)
	}
	replayed := in.Clone()
	if err := Replay(replayed, on); err != nil {
		t.Fatal(err)
	}
	assertBitExact(t, eng.Snapshot(), coldReference(t, replayed, FGT, 8))
	if _, err := eng.Apply(context.Background(), Delta{Seq: 2, Kind: WorkerOffline, WorkerID: 42}); err != nil {
		t.Fatal(err)
	}
	if snap := eng.Snapshot(); len(snap.Summary.Payoffs) != 0 {
		t.Fatal("engine did not drain to the empty equilibrium")
	}
}

// TestNoopFastPath pins the no-op detection: a zero-reward arrival that
// does not move its point's earliest expiry changes nothing the game
// reads, so the engine keeps the standing equilibrium without resolving.
func TestNoopFastPath(t *testing.T) {
	in := gmInstance(t, 9, 30, 6, 12)
	opt := Options{VDPS: testVDPS}
	opt.Game.Seed = 9
	eng, err := New(context.Background(), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	before := eng.Snapshot()
	d := Delta{Seq: 1, Kind: TaskArrived, TaskID: 90001, Point: 0, Expiry: 1e6, Reward: 0}
	res, err := eng.Apply(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resolve != ResolveNoop {
		t.Fatalf("resolve = %q, want %q", res.Resolve, ResolveNoop)
	}
	after := eng.Snapshot()
	if !reflect.DeepEqual(before.Summary.Payoffs, after.Summary.Payoffs) {
		t.Fatal("no-op changed payoffs")
	}
	if after.Seq != 1 {
		t.Fatalf("seq = %d, want 1", after.Seq)
	}
	// The arrival is still visible in the committed instance.
	if _, _, ok := findTask(after.Instance, 90001); !ok {
		t.Fatal("no-op arrival missing from committed instance")
	}
}
