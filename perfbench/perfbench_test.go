package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// heldOutSeed is a seed the workloads were not tuned on.
const heldOutSeed = 7

// shortRun runs a workload briefly: set-up, warm-up, one untraced pass of
// ops ops with its allocations counted, then one traced pass of the same
// ops. It fails the test on any failed check and returns the layer metrics
// plus "allocs_per_op" of the untraced pass.
func shortRun(t *testing.T, name string, seed int64, ops int) map[string]float64 {
	t.Helper()
	ctx := context.Background()
	w := workloads[name]
	b, err := w.setup(ctx, seed)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	if err := warmUp(ctx, b, w.warmOps); err != nil {
		t.Fatal(err)
	}
	if err := b.reset(ctx); err != nil {
		t.Fatal(err)
	}
	before := readRuntime()
	lat, err := b.pass(ctx, ops, false)
	after := readRuntime()
	if err != nil {
		t.Fatal(err)
	}
	failed := b.check(ctx)
	if err := b.reset(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := b.pass(ctx, ops, true); err != nil {
		t.Fatal(err)
	}
	failed += b.check(ctx)
	if failed != 0 {
		t.Fatalf("%s seed %d: %d ops failed their check", name, seed, failed)
	}
	if err := b.verdict(); err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	vals, _ := b.layers()
	vals["allocs_per_op"] = float64(after.ms.Mallocs-before.ms.Mallocs) / float64(len(lat))
	return vals
}

// TestCountsRepeat pins the counts a later change may claim on: two runs
// with the same seed give identical counts, and another seed changes them
// while still passing every check and guard. Stream's candidate counts are
// only checked for repeating: they depend on the fixed GM layouts and on
// the points' earliest expiries, which few deltas move.
func TestCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full SYN instance")
	}
	// tol is the relative difference allowed between the two runs. The
	// runtime allocates a few objects of its own while the callers run, so
	// allocs_per_op repeats to within 0.1% rather than exactly.
	counts := []struct {
		workload, metric string
		tol              float64
		seeded           bool
	}{
		{"batch", "vdps.subsets", 0, true},
		{"batch", "vdps.candidates", 0, true},
		{"batch", "game.switches", 0, true},
		{"stream", "vdps.subsets", 0, false},
		{"stream", "vdps.candidates", 0, false},
		{"stream", "game.switches", 0, true},
		{"stream", "stream.regen_frac", 0, true},
		{"stream", "allocs_per_op", 1e-3, true},
	}
	run := func(seed int64) map[string]map[string]float64 {
		return map[string]map[string]float64{
			"batch":  shortRun(t, "batch", seed, 1),
			"stream": shortRun(t, "stream", seed, 2000),
		}
	}
	first, second, other := run(1), run(1), run(heldOutSeed)
	for _, c := range counts {
		a, b, o := first[c.workload][c.metric], second[c.workload][c.metric], other[c.workload][c.metric]
		if math.Abs(a-b) > c.tol*math.Abs(a) {
			t.Errorf("%s %s: %v then %v on the same seed", c.workload, c.metric, a, b)
		}
		if c.seeded && math.Abs(a-o) <= c.tol*math.Abs(a) {
			t.Errorf("%s %s: %v on seeds 1 and %d alike", c.workload, c.metric, a, heldOutSeed)
		}
	}
}

// TestHeldOutSeedShape checks the shape claims the workloads were chosen
// for on a seed not used to tune them: the dynamics switch, regen stays
// well under a tenth of stream deltas, and audit is the largest layer of a
// serve request.
func TestHeldOutSeedShape(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full SYN instance")
	}
	batch := shortRun(t, "batch", heldOutSeed, 1)
	if batch["game.switches"] == 0 || batch["game.iterations"] <= 50 {
		t.Errorf("batch: %v switches over %v rounds", batch["game.switches"], batch["game.iterations"])
	}
	st := shortRun(t, "stream", heldOutSeed, 800)
	if f := st["stream.regen_frac"]; f == 0 || f >= 0.1 {
		t.Errorf("stream: regen share %v, want in (0, 0.1)", f)
	}
	serve := shortRun(t, "serve", heldOutSeed, 32)
	if serve["evo.iterations"] <= 1 {
		t.Errorf("serve: %v IEGT iterations", serve["evo.iterations"])
	}
	for _, other := range []string{"vdps.generate_ms", "game.state_build_ms", "evo.rounds_ms", "dataset.read_csv_ms"} {
		if serve["audit.run_ms"] <= serve[other] {
			t.Errorf("serve: audit.run_ms %v not above %s %v", serve["audit.run_ms"], other, serve[other])
		}
	}
}

// TestRunRejectsBadFlags checks that bad invocations exit non-zero without
// a result.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "batch", "--trace", "2"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// TestPercentile checks the nearest-rank percentile leaves ten samples
// beyond p90 at the minimum op count.
func TestPercentile(t *testing.T) {
	ds := make([]time.Duration, minOps)
	for i := range ds {
		ds[i] = time.Duration(minOps - i)
	}
	p90 := percentile(ds, 0.9)
	beyond := 0
	for _, d := range ds {
		if d > p90 {
			beyond++
		}
	}
	if beyond < 10 {
		t.Errorf("%d samples beyond p90, want at least 10", beyond)
	}
	if got := percentile(ds, 0.5); got != time.Duration(minOps/2) {
		t.Errorf("p50 = %v", got)
	}
}

// TestReportMatchesBenchmarkFile runs the smallest untraced window end to
// end and checks its last output line: exactly the result's four keys, and
// every end-to-end metric of BENCHMARK.json at the repository root, with a
// positive value in the listed unit. It also checks that BENCHMARK.json
// lists the per-layer metrics a traced run reports, in order.
func TestReportMatchesBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s %s, benchmark %s %s", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}

	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "serve", "--seed", "3", "--seconds", "0", "--trace", "0"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	last := []byte(lines[len(lines)-1])
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(last, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 {
		t.Errorf("result has keys %v, want correct, attempted, failed and metrics", keys)
	}
	var rep report
	if err := json.Unmarshal(last, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Attempted < minOps || rep.Failed != 0 {
		t.Errorf("correct %v, attempted %d, failed %d", rep.Correct, rep.Attempted, rep.Failed)
	}
	if len(rep.Metrics) != len(spec.EndToEnd) {
		t.Errorf("run reports %d end-to-end metrics, BENCHMARK.json lists %d", len(rep.Metrics), len(spec.EndToEnd))
	}
	for _, want := range spec.EndToEnd {
		if m, ok := rep.Metrics[want.Name]; !ok || m.Unit != want.Unit || m.Value <= 0 {
			t.Errorf("%s = %+v, want a positive value in %s", want.Name, m, want.Unit)
		}
	}
}
