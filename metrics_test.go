package fairtask_test

import (
	"context"
	"strconv"
	"strings"
	"testing"
	"time"

	"fairtask"
	"fairtask/internal/fault"
	"fairtask/internal/vdps"
)

// scrapeMetrics renders the registry in the Prometheus text format and
// returns every sample line as series → value, the series being the metric
// name with its label block exactly as exposed.
func scrapeMetrics(t *testing.T, reg *fairtask.MetricsRegistry) map[string]float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(sb.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparsable sample %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// wantMetrics compares the scraped series against exact expected values.
func wantMetrics(t *testing.T, label string, got map[string]float64, want map[string]float64) {
	t.Helper()
	for series, w := range want {
		v, ok := got[series]
		if !ok {
			t.Errorf("%s: series %s missing from /metrics", label, series)
			continue
		}
		if v != w {
			t.Errorf("%s: %s = %v, want %v", label, series, v, w)
		}
	}
}

// generationStats sums the work counters of independent exact generations,
// one per instance.
func generationStats(t *testing.T, opt fairtask.VDPSOptions, ins ...*fairtask.Instance) vdps.Stats {
	t.Helper()
	var sum vdps.Stats
	for _, in := range ins {
		g, err := vdps.Generate(in, opt)
		if err != nil {
			t.Fatal(err)
		}
		st := g.Stats()
		sum.SubsetsExplored += st.SubsetsExplored
		sum.ExtensionsPruned += st.ExtensionsPruned
		sum.Candidates += st.Candidates
	}
	return sum
}

// solveTotal names one fta_solve_total series.
func solveTotal(alg fairtask.Algorithm, converged bool) string {
	return `fta_solve_total{algorithm="` + string(alg) + `",converged="` + strconv.FormatBool(converged) + `"}`
}

func metricsProblem(t *testing.T) *fairtask.Problem {
	t.Helper()
	p, err := fairtask.GenerateSYN(fairtask.SYNConfig{
		Seed: 5, Centers: 2, Tasks: 160, Workers: 14, DeliveryPoints: 36,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Instances {
		if len(p.Instances[i].Workers) == 0 {
			t.Fatalf("center %d has no workers; the pin needs two solved centers", i)
		}
	}
	return p
}

// TestMetricsExpositionPinned pins the /metrics values a seeded 2-center
// SolveProblem produces for FGT and IEGT against figures computed
// independently of the telemetry path: the VDPS counters against direct
// vdps.Generate calls, the strategy-change counter against the per-round
// trace of an identically seeded run, and the solve/assign counters against
// the problem's shape.
func TestMetricsExpositionPinned(t *testing.T) {
	p := metricsProblem(t)
	vopt := fairtask.VDPSOptions{Epsilon: 3}
	ins := make([]*fairtask.Instance, len(p.Instances))
	for i := range p.Instances {
		ins[i] = &p.Instances[i]
	}
	gen := generationStats(t, vopt, ins...)
	if gen.SubsetsExplored == 0 || gen.ExtensionsPruned == 0 || gen.Candidates == 0 {
		t.Fatalf("generation stats %+v: every VDPS counter must move for the pin to bite", gen)
	}
	for _, alg := range []fairtask.Algorithm{fairtask.AlgFGT, fairtask.AlgIEGT} {
		opt := fairtask.Options{Algorithm: alg, Seed: 11, VDPS: vopt}

		traced := opt
		traced.Trace = true
		tres, err := fairtask.SolveProblem(p, traced)
		if err != nil {
			t.Fatal(err)
		}
		changes := 0
		converged := map[bool]float64{}
		for _, r := range tres.PerCenter {
			for _, st := range r.Trace {
				changes += st.Changes
			}
			converged[r.Converged]++
		}
		if changes == 0 {
			t.Fatalf("%s: no strategy switches; the pin would be vacuous", alg)
		}

		reg := fairtask.NewMetricsRegistry()
		opt.Recorder = fairtask.NewMetricsRecorder(reg)
		if _, err := fairtask.SolveProblem(p, opt); err != nil {
			t.Fatal(err)
		}
		a := `{algorithm="` + string(alg) + `"}`
		want := map[string]float64{
			"fta_vdps_subsets_total":                float64(gen.SubsetsExplored),
			"fta_vdps_pruned_total":                 float64(gen.ExtensionsPruned),
			"fta_vdps_candidates_total":             float64(gen.Candidates),
			"fta_vdps_generation_seconds_count":     float64(len(p.Instances)),
			"fta_solve_strategy_changes_total" + a:  float64(changes),
			"fta_solve_iterations_count":            float64(len(p.Instances)),
			"fta_solve_payoff_difference_count" + a: float64(len(p.Instances)),
			"fta_solve_potential_count" + a:         float64(len(p.Instances)),
			"fta_assign_centers_total":              float64(len(p.Instances)),
			"fta_assign_workers_total":              float64(p.WorkerCount()),
			"fta_assign_total" + a:                  1,
			"fta_assign_seconds_count":              1,
			solveTotal(alg, true):                   converged[true],
		}
		if converged[false] > 0 {
			want[solveTotal(alg, false)] = converged[false]
		}
		wantMetrics(t, string(alg), scrapeMetrics(t, reg), want)
	}
}

// TestMetricsExpositionRetry pins the counters across a retried solve: the
// first best-response round fails once, the retry regenerates candidates
// and succeeds, so the VDPS counters read two generations while exactly one
// solve completes.
func TestMetricsExpositionRetry(t *testing.T) {
	p := metricsProblem(t)
	in := &p.Instances[0]
	vopt := fairtask.VDPSOptions{Epsilon: 3}
	gen := generationStats(t, vopt, in)

	opt := fairtask.Options{Algorithm: fairtask.AlgFGT, Seed: 11, VDPS: vopt, Trace: true}
	tres, err := fairtask.Solve(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	changes := 0
	for _, st := range tres.Trace {
		changes += st.Changes
	}
	if changes == 0 {
		t.Fatal("no strategy switches; the pin would be vacuous")
	}

	fp := fault.Lookup("game.fgt.round")
	if fp == nil {
		t.Fatal("failpoint game.fgt.round not registered")
	}
	fp.Arm(fault.Behavior{Count: 1})
	defer fp.Disarm()

	reg := fairtask.NewMetricsRegistry()
	opt.Trace = false
	opt.Recorder = fairtask.NewMetricsRecorder(reg)
	opt.Retry = &fairtask.RetryPolicy{
		MaxAttempts: 2,
		Sleep:       func(context.Context, time.Duration) error { return nil },
	}
	if _, err := fairtask.SolveContext(context.Background(), in, opt); err != nil {
		t.Fatal(err)
	}
	if hits, fired := fp.Stats(); fired != 1 || hits < 2 {
		t.Fatalf("failpoint hits/fired = %d/%d, want a retried run", hits, fired)
	}
	got := scrapeMetrics(t, reg)
	wantMetrics(t, "retry", got, map[string]float64{
		"fta_vdps_subsets_total":                            float64(2 * gen.SubsetsExplored),
		"fta_vdps_pruned_total":                             float64(2 * gen.ExtensionsPruned),
		"fta_vdps_candidates_total":                         float64(2 * gen.Candidates),
		"fta_vdps_generation_seconds_count":                 2,
		"fta_solve_iterations_count":                        1,
		`fta_solve_strategy_changes_total{algorithm="FGT"}`: float64(changes),
	})
	if total := got[solveTotal(fairtask.AlgFGT, true)] + got[solveTotal(fairtask.AlgFGT, false)]; total != 1 {
		t.Errorf("fta_solve_total = %v, want 1", total)
	}
}

// TestMetricsExpositionSampled pins the counters of a SolveSampled run: the
// sampler's work counters (it prunes nothing) and one completed solve with
// its strategy switches.
func TestMetricsExpositionSampled(t *testing.T) {
	p := metricsProblem(t)
	in := &p.Instances[1]
	sopt := fairtask.SampleVDPSOptions{Epsilon: 3, Seed: 2}
	g, err := vdps.GenerateSampled(in, sopt)
	if err != nil {
		t.Fatal(err)
	}
	gen := g.Stats()
	opt := fairtask.Options{Algorithm: fairtask.AlgFGT, Seed: 11, Trace: true}
	tres, err := fairtask.SolveSampled(in, sopt, opt)
	if err != nil {
		t.Fatal(err)
	}
	changes := 0
	for _, st := range tres.Trace {
		changes += st.Changes
	}
	if changes == 0 {
		t.Fatal("no strategy switches; the pin would be vacuous")
	}

	reg := fairtask.NewMetricsRegistry()
	opt.Trace = false
	opt.Recorder = fairtask.NewMetricsRecorder(reg)
	if _, err := fairtask.SolveSampled(in, sopt, opt); err != nil {
		t.Fatal(err)
	}
	wantMetrics(t, "sampled", scrapeMetrics(t, reg), map[string]float64{
		"fta_vdps_subsets_total":                            float64(gen.SubsetsExplored),
		"fta_vdps_pruned_total":                             0,
		"fta_vdps_candidates_total":                         float64(gen.Candidates),
		"fta_vdps_generation_seconds_count":                 1,
		"fta_solve_iterations_count":                        1,
		`fta_solve_strategy_changes_total{algorithm="FGT"}`: float64(changes),
		solveTotal(fairtask.AlgFGT, tres.Converged):         1,
	})
}
