package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

const (
	// minOps is the fewest ops an untraced window measures, so that p90_ms
	// has at least ten samples beyond it.
	minOps = 100
	// A run sets up at least minSetups times and for at least setupTime,
	// at most maxSetups times; setup_s is the median, which discards the
	// cold first build of a fresh process.
	minSetups = 5
	maxSetups = 25
	setupTime = time.Second
)

// config is one run's parameters.
type config struct {
	seed   int64
	window time.Duration
}

// workload builds a bench over the inputs generated from a seed.
type workload struct {
	name  string
	setup func(ctx context.Context, seed int64) (bench, error)
	// warmOps is the length of the untimed warm-up, in ops.
	warmOps int
	// probeOps is the length of a traced probe run on behalf of another
	// workload's traced run, in ops.
	probeOps int
}

// workloads are the benchmark's workloads by name; see README.md for why
// each was chosen.
var workloads = map[string]workload{
	"batch":  {name: "batch", setup: setupBatch, warmOps: 2, probeOps: 2},
	"stream": {name: "stream", setup: setupStream, warmOps: 200, probeOps: 640},
	"serve":  {name: "serve", setup: setupServe, warmOps: 16, probeOps: 16},
}

// bench is a workload's state after set-up. A pass runs the workload's fixed
// op sequence from its start, so every pass of every run with the same seed
// executes the same ops.
type bench interface {
	// prepare runs once after the warm-up, outside the window: it builds
	// the reference outputs the per-pass checks compare against and runs
	// the oracle and dynamics guards.
	prepare(ctx context.Context) error
	// reset restores the state a pass starts from, outside the window.
	reset(ctx context.Context) error
	// pass runs the first n ops of the sequence (all of them when n <= 0)
	// and returns each op's latency. With traced set, each op's layer
	// calls are timed from the benchmark and accumulated for layers. Op
	// failures are counted for check, not returned; an error means the
	// run cannot continue.
	pass(ctx context.Context, n int, traced bool) ([]time.Duration, error)
	// check verifies the outputs of the last pass, outside the window, and
	// returns how many of its ops failed.
	check(ctx context.Context) int
	// verdict reports a failed oracle or dynamics guard.
	verdict() error
	// fairness returns the mean P_dif and mean average payoff of the
	// outputs of all passes.
	fairness() (pdif, avg float64)
	// layers returns the per-layer metrics accumulated by traced passes,
	// and the per-op busy time of the layers on the op's path divided by
	// the parallelism that ran them.
	layers() (map[string]float64, time.Duration)
	close()
}

// phase is the outcome of a measured window: whole passes, with runtime
// counters read at each pass's boundaries so that nothing done between
// passes (resets, checks) is counted.
type phase struct {
	lat      []time.Duration
	busy     time.Duration
	failed   int
	mallocs  uint64
	bytes    uint64
	numGC    uint32
	pauseNS  uint64
	gcCPU    float64
	totalCPU float64
}

// runtimeSample is a reading of the runtime counters a phase accumulates.
type runtimeSample struct {
	ms       runtime.MemStats
	gcCPU    float64
	totalCPU float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeSample {
	var s runtimeSample
	runtime.ReadMemStats(&s.ms)
	metrics.Read(cpuSamples)
	s.gcCPU = cpuSamples[0].Value.Float64()
	s.totalCPU = cpuSamples[1].Value.Float64()
	return s
}

// runPhase runs whole passes until window has been measured and at least
// minOps ops have run.
func runPhase(ctx context.Context, b bench, window time.Duration, minOps int, traced bool) (*phase, error) {
	ph := &phase{}
	for ph.busy < window || len(ph.lat) < minOps {
		if err := b.reset(ctx); err != nil {
			return nil, err
		}
		before := readRuntime()
		start := time.Now()
		lat, err := b.pass(ctx, 0, traced)
		ph.busy += time.Since(start)
		after := readRuntime()
		if err != nil {
			return nil, err
		}
		if len(lat) == 0 {
			return nil, fmt.Errorf("a pass ran no ops")
		}
		ph.lat = append(ph.lat, lat...)
		ph.mallocs += after.ms.Mallocs - before.ms.Mallocs
		ph.bytes += after.ms.TotalAlloc - before.ms.TotalAlloc
		ph.numGC += after.ms.NumGC - before.ms.NumGC
		ph.pauseNS += after.ms.PauseTotalNs - before.ms.PauseTotalNs
		ph.gcCPU += after.gcCPU - before.gcCPU
		ph.totalCPU += after.totalCPU - before.totalCPU
		ph.failed += b.check(ctx)
	}
	return ph, nil
}

// setupMedian runs the workload's set-up repeatedly, each time from a
// collected heap, keeps the last bench and returns the median set-up time.
func setupMedian(ctx context.Context, w workload, seed int64) (bench, time.Duration, error) {
	var b bench
	var times []time.Duration
	var spent time.Duration
	for len(times) < minSetups || (spent < setupTime && len(times) < maxSetups) {
		if b != nil {
			b.close()
		}
		runtime.GC()
		start := time.Now()
		nb, err := w.setup(ctx, seed)
		if err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		times = append(times, time.Since(start))
		spent += times[len(times)-1]
		b = nb
	}
	return b, percentile(times, 0.5), nil
}

// warmUp runs the untimed warm-up ops and then the once-per-run
// preparation of the reference outputs.
func warmUp(ctx context.Context, b bench, ops int) error {
	if err := b.reset(ctx); err != nil {
		return err
	}
	if _, err := b.pass(ctx, ops, false); err != nil {
		return err
	}
	return b.prepare(ctx)
}

// measure is an untraced run: it reports the end-to-end metrics.
func measure(ctx context.Context, w workload, cfg config) (*report, error) {
	b, setup, err := setupMedian(ctx, w, cfg.seed)
	if err != nil {
		return nil, err
	}
	defer b.close()
	if err := warmUp(ctx, b, w.warmOps); err != nil {
		return nil, err
	}
	ph, err := runPhase(ctx, b, cfg.window, minOps, false)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(b)

	n := float64(len(ph.lat))
	pdif, avg := b.fairness()
	rep := &report{
		Attempted: len(ph.lat),
		Failed:    ph.failed,
		Metrics: map[string]metric{
			"ops_per_s":       {n / ph.busy.Seconds(), "1/s"},
			"p50_ms":          {ms64(percentile(ph.lat, 0.5)), "ms"},
			"p90_ms":          {ms64(percentile(ph.lat, 0.9)), "ms"},
			"ok_frac":         {(n - float64(ph.failed)) / n, "frac"},
			"setup_s":         {setup.Seconds(), "s"},
			"allocs_per_op":   {float64(ph.mallocs) / n, "count"},
			"alloc_mb_per_op": {float64(ph.bytes) / n / 1e6, "MB"},
			"retained_mb":     {float64(ms.HeapAlloc) / 1e6, "MB"},
			"payoff_diff":     {pdif, "payoff"},
			"avg_payoff":      {avg, "payoff"},
		},
	}
	rep.notes = append(rep.notes, fmt.Sprintf("%s: %d ops in %.2fs of passes, seed %d", w.name, len(ph.lat), ph.busy.Seconds(), cfg.seed))
	rep.Correct = ph.failed == 0
	if err := b.verdict(); err != nil {
		rep.Correct = false
		rep.notes = append(rep.notes, "CHECK FAILED: "+err.Error())
	}
	return rep, nil
}

// measureTraced is a traced run: half the window runs untraced, half
// traced, and it reports the per-layer metrics, the reconciliation of the
// layers' busy time with the untraced p50 and the tracing overhead. Layers
// the workload's op does not cross are measured by a short traced probe of
// the workload whose op does.
func measureTraced(ctx context.Context, w workload, cfg config) (*report, error) {
	b, err := w.setup(ctx, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	defer b.close()
	if err := warmUp(ctx, b, w.warmOps); err != nil {
		return nil, err
	}
	plain, err := runPhase(ctx, b, cfg.window/2, 0, false)
	if err != nil {
		return nil, err
	}
	traced, err := runPhase(ctx, b, cfg.window/2, 0, true)
	if err != nil {
		return nil, err
	}
	vals, busy := b.layers()
	rep := &report{
		Attempted: len(plain.lat) + len(traced.lat),
		Failed:    plain.failed + traced.failed,
		Metrics:   map[string]metric{},
	}
	rep.Correct = rep.Failed == 0
	if err := b.verdict(); err != nil {
		rep.Correct = false
		rep.notes = append(rep.notes, "CHECK FAILED: "+err.Error())
	}

	n := float64(len(plain.lat))
	untracedP50 := percentile(plain.lat, 0.5)
	tracedP50 := percentile(traced.lat, 0.5)
	vals["runtime.gc_per_op"] = float64(plain.numGC) / n
	vals["runtime.gc_cpu_frac"] = plain.gcCPU / plain.totalCPU
	vals["runtime.gc_pause_ms"] = float64(plain.pauseNS) / n / 1e6
	vals["trace.untraced_p50_ms"] = ms64(untracedP50)
	vals["trace.traced_p50_ms"] = ms64(tracedP50)
	vals["trace.overhead_frac"] = ms64(tracedP50)/ms64(untracedP50) - 1
	vals["trace.layers_ms"] = ms64(busy)
	vals["trace.reconcile_frac"] = ms64(busy) / ms64(untracedP50)
	rep.notes = append(rep.notes,
		fmt.Sprintf("%s traced run, seed %d: %d untraced + %d traced ops", w.name, cfg.seed, len(plain.lat), len(traced.lat)),
		fmt.Sprintf("reconcile: layers %.3f ms per op / untraced p50 %.3f ms = %.3f", ms64(busy), ms64(untracedP50), vals["trace.reconcile_frac"]),
		fmt.Sprintf("tracing overhead: traced p50 %.3f ms vs untraced %.3f ms (%+.1f%%)", ms64(tracedP50), ms64(untracedP50), 100*vals["trace.overhead_frac"]),
	)

	probed := map[string][]string{}
	for _, pname := range []string{"serve", "stream", "batch"} {
		if pname == w.name || !missingLayers(vals) {
			continue
		}
		pvals, attempted, failed, err := probe(ctx, workloads[pname], cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", pname, err)
		}
		rep.Attempted += attempted
		rep.Failed += failed
		rep.Correct = rep.Correct && failed == 0
		for name, v := range pvals {
			if _, ok := vals[name]; !ok {
				vals[name] = v
				probed[pname] = append(probed[pname], name)
			}
		}
	}
	for pname, names := range probed {
		sort.Strings(names)
		rep.notes = append(rep.notes, fmt.Sprintf("measured by a traced probe of %s: %s", pname, strings.Join(names, " ")))
	}
	for _, lm := range layerMetrics {
		v, ok := vals[lm.name]
		if !ok {
			return nil, fmt.Errorf("traced run did not measure %s", lm.name)
		}
		rep.Metrics[lm.name] = metric{v, lm.unit}
	}
	return rep, nil
}

// probe runs a short traced pass of a workload and returns its layer
// metrics and how many of its ops ran and failed their check.
func probe(ctx context.Context, w workload, seed int64) (map[string]float64, int, int, error) {
	b, err := w.setup(ctx, seed)
	if err != nil {
		return nil, 0, 0, err
	}
	defer b.close()
	if err := warmUp(ctx, b, w.warmOps); err != nil {
		return nil, 0, 0, err
	}
	if err := b.reset(ctx); err != nil {
		return nil, 0, 0, err
	}
	lat, err := b.pass(ctx, w.probeOps, true)
	if err != nil {
		return nil, 0, 0, err
	}
	failed := b.check(ctx)
	vals, _ := b.layers()
	return vals, len(lat), failed, nil
}

// percentile returns the nearest-rank q-quantile of ds.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// ms64 converts a duration to fractional milliseconds.
func ms64(d time.Duration) float64 { return float64(d) / 1e6 }
