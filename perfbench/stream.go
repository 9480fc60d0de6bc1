package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"fairtask"
	"fairtask/internal/audit"
	"fairtask/internal/game"
	"fairtask/internal/model"
	"fairtask/internal/stream"
	"fairtask/internal/vdps"
)

const (
	// streamCenters is how many GM centers, each with its own engine and
	// delta stream, one stream pass interleaves.
	streamCenters = 32
	// streamCallers is the number of closed-loop callers, one per CPU of
	// the 2-vCPU reference host; each owns half of the engines.
	streamCallers = 2
	// streamSampleEvery is the stride of the snapshots the check pins
	// against a cold FGT solve.
	streamSampleEvery = 100
)

// streamGen is each center's delta stream: 10 h of Poisson task arrivals
// that live 2 h, worker churn and re-pricing, in the proportions 60:4:20
// per hour at a fifth of the rates of a busy single-center mix. Arrivals
// living 0.8 h made a sixth of the deltas regenerate candidates, which put
// p90 on the boundary between the warm and regen latency modes.
var streamGen = stream.StreamConfig{Rate: 12, Duration: 10, Lifetime: 2, ChurnRate: 0.8, RepriceRate: 4}

// streamOp is one op: delta idx of center eng's stream.
type streamOp struct{ eng, idx int }

// streamOut is one op's committed output.
type streamOut struct {
	ok        bool
	resolve   string
	diff, avg float64
}

// streamSample is a snapshot kept for the cold-solve check.
type streamSample struct {
	op, eng int
	snap    stream.Snapshot
}

// streamBench is the stream workload: one delta applied to a warm
// stream.Engine with Apply, then one Snapshot read, per op. FGT, without
// continuation, so every committed equilibrium is bit-pinned to a cold
// solve of the engine's current instance.
type streamBench struct {
	ins     []*model.Instance
	deltas  [][]stream.Delta
	order   []streamOp
	engines []*stream.Engine
	used    bool
	opt     stream.Options
	seeds   []int64 // FGT seed of each center's engine

	outs    []streamOut // outputs of the last pass, by op
	ref     []streamOut // outputs of the first full pass
	samples []streamSample
	traced  bool

	resolves  map[string]int
	outputs   int
	pdif, avg float64

	// traced-pass accumulators
	acc                  solveAcc
	tr                   streamTrace
	coldEquiv, auditTime time.Duration
	coldEquivN           int
}

// streamTrace accumulates the traced ops' stream-layer figures.
type streamTrace struct {
	ops                       int
	kinds                     map[string]int
	warm, regen, busy         []time.Duration
	snapshot, repair, resolve time.Duration
	touched                   float64
	iterations                int
}

// setupStream builds the centers from the GM layouts, generates their
// delta streams and FGT seeds from seed, and builds the engines, each by
// stream.New with its initial cold solve.
func setupStream(ctx context.Context, seed int64) (bench, error) {
	rng := rand.New(rand.NewSource(seed))
	ins, err := gmLayouts(streamCenters)
	if err != nil {
		return nil, err
	}
	b := &streamBench{
		ins:      ins,
		opt:      stream.Options{VDPS: vdps.Options{Epsilon: gmEps}},
		resolves: map[string]int{},
		tr:       streamTrace{kinds: map[string]int{}},
	}
	for _, in := range ins {
		cfg := streamGen
		cfg.Seed = rng.Int63()
		ds, err := stream.GenerateStream(in, cfg)
		if err != nil {
			return nil, err
		}
		b.deltas = append(b.deltas, ds)
		b.seeds = append(b.seeds, rng.Int63())
	}
	for i, more := 0, true; more; i++ {
		more = false
		for k, ds := range b.deltas {
			if i < len(ds) {
				b.order = append(b.order, streamOp{k, i})
				more = true
			}
		}
	}
	if err := b.build(ctx); err != nil {
		return nil, err
	}
	return b, nil
}

// build creates a fresh engine per center.
func (b *streamBench) build(ctx context.Context) error {
	b.engines = b.engines[:0]
	for k, in := range b.ins {
		e, err := stream.New(ctx, in, b.engineOptions(k))
		if err != nil {
			return err
		}
		b.engines = append(b.engines, e)
	}
	b.used = false
	return nil
}

// engineOptions are center k's engine options.
func (b *streamBench) engineOptions(k int) stream.Options {
	opt := b.opt
	opt.Game.Seed = b.seeds[k]
	return opt
}

// reset rebuilds the engines a pass has advanced.
func (b *streamBench) reset(ctx context.Context) error {
	if !b.used {
		return nil
	}
	return b.build(ctx)
}

func (b *streamBench) close() {}

func (b *streamBench) prepare(context.Context) error { return nil }

// pass applies the first n deltas of the interleaved sequence. Each caller
// owns the engines whose index is its own modulo streamCallers and applies
// their deltas in sequence order.
func (b *streamBench) pass(ctx context.Context, n int, traced bool) ([]time.Duration, error) {
	if n <= 0 || n > len(b.order) {
		n = len(b.order)
	}
	b.used, b.traced = true, traced
	b.outs = make([]streamOut, n)
	b.samples = b.samples[:0]
	lats := make([][]time.Duration, streamCallers)
	samples := make([][]streamSample, streamCallers)
	trs := make([]streamTrace, streamCallers)
	var wg sync.WaitGroup
	for c := 0; c < streamCallers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr := &trs[c]
			tr.kinds = map[string]int{}
			for op := 0; op < n; op++ {
				o := b.order[op]
				if o.eng%streamCallers != c {
					continue
				}
				eng := b.engines[o.eng]
				d := b.deltas[o.eng][o.idx]
				start := time.Now()
				var r stream.Result
				var snap stream.Snapshot
				var err error
				if traced {
					r, snap, err = tr.apply(ctx, eng, d)
				} else if r, err = eng.Apply(ctx, d); err == nil {
					snap = eng.Snapshot()
				}
				lats[c] = append(lats[c], time.Since(start))
				if err != nil {
					continue
				}
				b.outs[op] = streamOut{ok: true, resolve: r.Resolve, diff: r.Summary.Difference, avg: r.Summary.Average}
				if op%streamSampleEvery == streamSampleEvery-1 {
					samples[c] = append(samples[c], streamSample{op, o.eng, snap})
				}
			}
		}(c)
	}
	wg.Wait()
	var lat []time.Duration
	for c := range lats {
		lat = append(lat, lats[c]...)
		b.samples = append(b.samples, samples[c]...)
		if traced {
			b.tr.merge(&trs[c])
		}
	}
	return lat, nil
}

// apply runs one op with the public tracer attached, reading the engine's
// own stream.repair and stream.resolve spans, and times the snapshot read
// separately.
func (t *streamTrace) apply(ctx context.Context, eng *stream.Engine, d stream.Delta) (stream.Result, stream.Snapshot, error) {
	start := time.Now()
	tracer := fairtask.NewTracer()
	root := tracer.Root("perfbench.op")
	r, err := eng.Apply(fairtask.ContextWithSpan(ctx, root), d)
	root.End()
	if err != nil {
		return r, stream.Snapshot{}, err
	}
	applied := time.Now()
	snap := eng.Snapshot()
	end := time.Now()
	var repair, resolve time.Duration
	for _, sp := range tracer.Collect("op").Spans {
		switch sp.Name {
		case "stream.repair":
			repair += sp.Duration
		case "stream.resolve":
			resolve += sp.Duration
		}
	}
	t.ops++
	t.kinds[r.Resolve]++
	switch r.Resolve {
	case stream.ResolveWarm:
		t.warm = append(t.warm, end.Sub(start))
	case stream.ResolveRegen:
		t.regen = append(t.regen, end.Sub(start))
	}
	t.snapshot += end.Sub(applied)
	t.repair += repair
	t.resolve += resolve
	t.busy = append(t.busy, repair+resolve+end.Sub(applied))
	if w := len(snap.Instance.Workers); w > 0 {
		t.touched += float64(r.WorkersTouched) / float64(w)
	}
	t.iterations += r.Iterations
	return r, snap, nil
}

// merge adds another caller's traced figures.
func (t *streamTrace) merge(o *streamTrace) {
	t.ops += o.ops
	for k, v := range o.kinds {
		t.kinds[k] += v
	}
	t.warm = append(t.warm, o.warm...)
	t.regen = append(t.regen, o.regen...)
	t.busy = append(t.busy, o.busy...)
	t.snapshot += o.snapshot
	t.repair += o.repair
	t.resolve += o.resolve
	t.touched += o.touched
	t.iterations += o.iterations
}

// check fails ops that errored, fell back to a cold solve, or committed an
// output different from the same op's in the first full pass, and pins
// every sampled snapshot bit-for-bit to a cold FGT solve of its instance.
// After a traced pass the cold solve is run layer by layer and timed, as
// the cold equivalent of a warm apply, and the snapshot is also audited.
func (b *streamBench) check(ctx context.Context) int {
	failed := map[int]bool{}
	for op, o := range b.outs {
		if !o.ok || o.resolve == stream.ResolveCold {
			failed[op] = true
		}
		if op < len(b.ref) && o != b.ref[op] {
			failed[op] = true
		}
	}
	for _, s := range b.samples {
		ok, c := b.coldCheck(ctx, s)
		if !ok {
			failed[s.op] = true
		}
		if c != nil {
			b.acc.addGroup([]*centerTrace{c}, false)
		}
	}
	if b.ref == nil && len(b.outs) == len(b.order) {
		b.ref = append([]streamOut(nil), b.outs...)
	}
	for op, o := range b.outs {
		if failed[op] {
			continue
		}
		b.resolves[o.resolve]++
		b.outputs++
		b.pdif += o.diff
		b.avg += o.avg
	}
	return len(failed)
}

// coldCheck solves the snapshot's instance from scratch and compares. On a
// traced pass it returns the timed cold solve.
func (b *streamBench) coldCheck(ctx context.Context, s streamSample) (bool, *centerTrace) {
	snap, opt := s.snap, b.engineOptions(s.eng)
	if !b.traced {
		g, err := vdps.GenerateContext(ctx, snap.Instance, opt.VDPS)
		if err != nil {
			return false, nil
		}
		want, err := game.FGT(ctx, g, opt.Game)
		return err == nil && sameSnapshot(snap, want), nil
	}
	c, err := traceCenter(ctx, snap.Instance, opt.VDPS, false, opt.Game.Seed)
	if err != nil {
		return false, nil
	}
	b.coldEquiv += c.total()
	b.coldEquivN++
	start := time.Now()
	rep := audit.Run(snap.Instance, snap.Assignment, &snap.Summary, audit.Options{
		Generator: c.genr,
		VDPS:      b.opt.VDPS,
		Algorithm: string(stream.FGT),
		Converged: snap.Converged,
	})
	b.auditTime += time.Since(start)
	return rep.OK() && sameSnapshot(snap, c.res), c
}

// sameSnapshot reports whether a snapshot's equilibrium is bit-identical
// to a cold solve's.
func sameSnapshot(s stream.Snapshot, want *game.Result) bool {
	got := &game.Result{
		Assignment: s.Assignment,
		Summary:    s.Summary,
		Iterations: s.Iterations,
		Converged:  s.Converged,
	}
	return sameResult(got, want)
}

// verdict checks the dynamics guard: the run saw warm and regen resolves
// and no cold fallback.
func (b *streamBench) verdict() error {
	if b.outputs == 0 {
		return fmt.Errorf("stream: no checked outputs")
	}
	if b.resolves[stream.ResolveWarm] == 0 || b.resolves[stream.ResolveRegen] == 0 || b.resolves[stream.ResolveCold] != 0 {
		return fmt.Errorf("stream: resolve mix %v lacks warm or regen resolves, or has cold fallbacks", b.resolves)
	}
	return nil
}

func (b *streamBench) fairness() (float64, float64) {
	if b.outputs == 0 {
		return 0, 0
	}
	return b.pdif / float64(b.outputs), b.avg / float64(b.outputs)
}

func (b *streamBench) layers() (map[string]float64, time.Duration) {
	vals := map[string]float64{}
	if b.tr.ops == 0 {
		return vals, 0
	}
	b.acc.metrics(vals)
	t := &b.tr
	n := float64(t.ops)
	warm := percentile(t.warm, 0.5)
	vals["stream.warm_ms"] = ms64(warm)
	vals["stream.regen_ms"] = ms64(percentile(t.regen, 0.5))
	vals["stream.regen_frac"] = float64(t.kinds[stream.ResolveRegen]) / n
	vals["stream.noop_frac"] = float64(t.kinds[stream.ResolveNoop]) / n
	vals["stream.cold_frac"] = float64(t.kinds[stream.ResolveCold]) / n
	vals["stream.touched_frac"] = t.touched / n
	vals["stream.iterations"] = float64(t.iterations) / n
	vals["stream.snapshot_ms"] = ms64(t.snapshot) / n
	vals["stream.repair_ms"] = ms64(t.repair) / n
	vals["stream.resolve_ms"] = ms64(t.resolve) / n
	if b.coldEquivN > 0 {
		cold := ms64(b.coldEquiv) / float64(b.coldEquivN)
		vals["stream.cold_equiv_ms"] = cold
		vals["stream.warm_speedup"] = cold / ms64(warm)
		vals["audit.run_ms"] = ms64(b.auditTime) / float64(b.coldEquivN)
	}
	return vals, percentile(t.busy, 0.5)
}
