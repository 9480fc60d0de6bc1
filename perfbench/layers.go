package main

import (
	"context"
	"runtime"
	"time"

	"fairtask/internal/dataset"
	"fairtask/internal/evo"
	"fairtask/internal/game"
	"fairtask/internal/model"
	"fairtask/internal/vdps"
)

// layerMetrics lists every per-layer metric a traced run reports, in
// BENCHMARK.json order.
var layerMetrics = []struct{ name, unit string }{
	{"vdps.generate_ms", "ms"},
	{"vdps.subsets", "count"},
	{"vdps.candidates", "count"},
	{"vdps.pruned_frac", "frac"},
	{"vdps.ns_per_subset", "ns"},
	{"game.state_build_ms", "ms"},
	{"game.strategies", "count"},
	{"game.ns_per_strategy", "ns"},
	{"game.rounds_ms", "ms"},
	{"game.iterations", "count"},
	{"game.switches", "count"},
	{"game.switch_frac", "frac"},
	{"evo.rounds_ms", "ms"},
	{"evo.iterations", "count"},
	{"evo.switches", "count"},
	{"audit.run_ms", "ms"},
	{"platform.center_max_ms", "ms"},
	{"platform.center_skew", "ratio"},
	{"platform.critical_path_ms", "ms"},
	{"stream.warm_ms", "ms"},
	{"stream.regen_ms", "ms"},
	{"stream.regen_frac", "frac"},
	{"stream.noop_frac", "frac"},
	{"stream.cold_frac", "frac"},
	{"stream.touched_frac", "frac"},
	{"stream.iterations", "count"},
	{"stream.snapshot_ms", "ms"},
	{"stream.repair_ms", "ms"},
	{"stream.resolve_ms", "ms"},
	{"stream.cold_equiv_ms", "ms"},
	{"stream.warm_speedup", "ratio"},
	{"server.handler_ms", "ms"},
	{"server.transport_ms", "ms"},
	{"server.self_ms", "ms"},
	{"dataset.read_csv_ms", "ms"},
	{"server.response_kb", "KiB"},
	{"runtime.gc_per_op", "count"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.untraced_p50_ms", "ms"},
	{"trace.traced_p50_ms", "ms"},
	{"trace.overhead_frac", "frac"},
	{"trace.layers_ms", "ms"},
	{"trace.reconcile_frac", "ratio"},
}

// missingLayers reports whether vals lacks any per-layer metric.
func missingLayers(vals map[string]float64) bool {
	for _, lm := range layerMetrics {
		if _, ok := vals[lm.name]; !ok {
			return true
		}
	}
	return false
}

// centerTrace is one center's cold solve run layer call by layer call:
// vdps.GenerateContext, game.NewState, then FGT or IEGT rounds from the
// built state, each timed from the benchmark.
type centerTrace struct {
	gen, build, rounds time.Duration
	stats              vdps.Stats
	strategies         int
	workers            int
	iterations         int
	switches           int
	genr               *vdps.Generator
	res                *game.Result
}

// total is the center's busy time over all its layers.
func (c *centerTrace) total() time.Duration { return c.gen + c.build + c.rounds }

// traceCenter runs one center's cold solve as separate timed layer calls.
// The result is bit-identical to the platform's solve of the same instance
// with the same options: FGTFromState and IEGTFromState are pinned to FGT
// and IEGT on the generator the state was built from.
func traceCenter(ctx context.Context, in *model.Instance, vopt vdps.Options, iegt bool, seed int64) (*centerTrace, error) {
	c := &centerTrace{workers: len(in.Workers)}
	t0 := time.Now()
	g, err := vdps.GenerateContext(ctx, in, vopt)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	s := game.NewState(g)
	t2 := time.Now()
	if iegt {
		c.res, err = evo.IEGTFromState(ctx, s, evo.Options{Seed: seed, Trace: true})
	} else {
		c.res, err = game.FGTFromState(ctx, s, game.Options{Seed: seed, Trace: true})
	}
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	c.gen, c.build, c.rounds = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	c.stats = g.Stats()
	c.genr = g
	for _, st := range s.Strategies {
		c.strategies += len(st)
	}
	c.iterations = c.res.Iterations
	for _, it := range c.res.Trace {
		c.switches += it.Changes
	}
	return c, nil
}

// solveAcc accumulates traced cold solves into the vdps, game (FGT) or evo
// (IEGT) and platform metrics. A group is the set of centers one op (or one
// sampled batch) solves; platform metrics are per group.
type solveAcc struct {
	groups                      int
	gen, build                  time.Duration
	subsets, pruned, candidates int
	strategies                  int
	fgtSolves, evoSolves        int
	fgtRounds, evoRounds        time.Duration
	fgtIters, fgtSwitches       int
	fgtWorkerRounds             int
	evoIters, evoSwitches       int
	centerMax, critical         time.Duration
	skew                        float64
}

// addGroup records the traced centers of one group. iegt marks IEGT
// solves, whose rounds go to the evo metrics.
func (a *solveAcc) addGroup(cs []*centerTrace, iegt bool) {
	if len(cs) == 0 {
		return
	}
	var max, sum time.Duration
	for _, c := range cs {
		a.gen += c.gen
		a.build += c.build
		a.subsets += c.stats.SubsetsExplored
		a.pruned += c.stats.ExtensionsPruned
		a.candidates += c.stats.Candidates
		a.strategies += c.strategies
		if iegt {
			a.evoSolves++
			a.evoRounds += c.rounds
			a.evoIters += c.iterations
			a.evoSwitches += c.switches
		} else {
			a.fgtSolves++
			a.fgtRounds += c.rounds
			a.fgtIters += c.iterations
			a.fgtSwitches += c.switches
			a.fgtWorkerRounds += c.iterations * c.workers
		}
		t := c.total()
		sum += t
		if t > max {
			max = t
		}
	}
	a.groups++
	a.centerMax += max
	mean := sum / time.Duration(len(cs))
	if mean > 0 {
		a.skew += float64(max) / float64(mean)
	}
	crit := sum / time.Duration(runtime.GOMAXPROCS(0))
	if max > crit {
		crit = max
	}
	a.critical += crit
}

// criticalPerGroup is the mean critical path of a group: the slowest center
// or the summed center time spread over GOMAXPROCS, whichever is longer.
func (a *solveAcc) criticalPerGroup() time.Duration {
	if a.groups == 0 {
		return 0
	}
	return a.critical / time.Duration(a.groups)
}

// metrics returns the accumulated metrics, per group for vdps, state
// build, FGT and IEGT work (a group is one op on batch and serve). Metrics
// of a solver that never ran are omitted so a probe can supply them.
func (a *solveAcc) metrics(vals map[string]float64) {
	if a.groups == 0 {
		return
	}
	g := float64(a.groups)
	vals["vdps.generate_ms"] = ms64(a.gen) / g
	vals["vdps.subsets"] = float64(a.subsets) / g
	vals["vdps.candidates"] = float64(a.candidates) / g
	vals["vdps.pruned_frac"] = float64(a.pruned) / float64(a.pruned+a.subsets)
	vals["vdps.ns_per_subset"] = float64(a.gen) / float64(a.subsets)
	vals["game.state_build_ms"] = ms64(a.build) / g
	vals["game.strategies"] = float64(a.strategies) / g
	vals["game.ns_per_strategy"] = float64(a.build) / float64(a.strategies)
	if a.fgtSolves > 0 {
		vals["game.rounds_ms"] = ms64(a.fgtRounds) / g
		vals["game.iterations"] = float64(a.fgtIters) / g
		vals["game.switches"] = float64(a.fgtSwitches) / g
		vals["game.switch_frac"] = float64(a.fgtSwitches) / float64(a.fgtWorkerRounds)
	}
	if a.evoSolves > 0 {
		vals["evo.rounds_ms"] = ms64(a.evoRounds) / g
		vals["evo.iterations"] = float64(a.evoIters) / g
		vals["evo.switches"] = float64(a.evoSwitches) / g
	}
	vals["platform.center_max_ms"] = ms64(a.centerMax) / g
	vals["platform.center_skew"] = a.skew / g
	vals["platform.critical_path_ms"] = ms64(a.criticalPerGroup())
}

// routesEqual reports whether two assignments hold identical routes.
func routesEqual(a, b *model.Assignment) bool {
	if len(a.Routes) != len(b.Routes) {
		return false
	}
	for w := range a.Routes {
		if len(a.Routes[w]) != len(b.Routes[w]) {
			return false
		}
		for i := range a.Routes[w] {
			if a.Routes[w][i] != b.Routes[w][i] {
				return false
			}
		}
	}
	return true
}

// sameResult reports whether two game results are bit-identical in
// assignment, payoffs, iteration count and convergence.
func sameResult(a, b *game.Result) bool {
	if a.Iterations != b.Iterations || a.Converged != b.Converged ||
		a.Summary.Difference != b.Summary.Difference || a.Summary.Average != b.Summary.Average ||
		len(a.Summary.Payoffs) != len(b.Summary.Payoffs) {
		return false
	}
	for i := range a.Summary.Payoffs {
		if a.Summary.Payoffs[i] != b.Summary.Payoffs[i] {
			return false
		}
	}
	return routesEqual(a.Assignment, b.Assignment)
}

// gmEps is ε on the GM instances, the paper's Table I default for GM.
const gmEps = 0.6

// gmLayouts returns the first n GM instances at the Table I defaults (200
// tasks, 40 workers, 100 delivery points), generated with seeds 1..n. They
// are a fixed pool, like the paper's gMission data they stand in for: a
// run's seed varies what happens on them, not the layouts themselves,
// because the layouts' cost varies too widely for a few dozen of them to
// average out.
func gmLayouts(n int) ([]*model.Instance, error) {
	ins := make([]*model.Instance, 0, n)
	for s := 1; s <= n; s++ {
		in, err := dataset.GenerateGM(dataset.GMConfig{Seed: int64(s)})
		if err != nil {
			return nil, err
		}
		ins = append(ins, in)
	}
	return ins, nil
}
