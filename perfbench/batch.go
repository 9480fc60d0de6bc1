package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"fairtask"
	"fairtask/internal/audit"
	"fairtask/internal/dataset"
	"fairtask/internal/game"
	"fairtask/internal/model"
	"fairtask/internal/payoff"
	"fairtask/internal/vdps"
)

// batchBench is the batch workload: one fairtask.SolveProblem with FGT on
// the paper's Table I SYN defaults per op, audit off in the op.
type batchBench struct {
	prob *model.Problem
	opt  fairtask.Options

	results []*fairtask.ProblemResult // outputs of the last pass
	ref     *fairtask.ProblemResult   // audited, oracle-pinned reference output
	err     error                     // failed oracle or guard

	outputs   int
	pdif, avg float64

	acc       solveAcc
	auditTime time.Duration
}

// setupBatch generates the SYN instance from seed — 50 centers, 100k
// tasks, 2000 workers, 5000 delivery points, e = 2 h, maxDP = 3 — and seeds
// FGT with it.
func setupBatch(_ context.Context, seed int64) (bench, error) {
	p, err := dataset.GenerateSYN(dataset.SYNConfig{Seed: seed})
	if err != nil {
		return nil, err
	}
	return &batchBench{
		prob: p,
		opt: fairtask.Options{
			Algorithm: fairtask.AlgFGT,
			VDPS:      vdps.Options{Epsilon: 2},
			Seed:      seed,
		},
	}, nil
}

func (b *batchBench) reset(context.Context) error { return nil }

func (b *batchBench) close() {}

// pass runs n solves (one when n <= 0).
func (b *batchBench) pass(ctx context.Context, n int, traced bool) ([]time.Duration, error) {
	if n <= 0 {
		n = 1
	}
	b.results = b.results[:0]
	lat := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		var res *fairtask.ProblemResult
		var err error
		if traced {
			res, err = b.tracedSolve(ctx)
		} else {
			res, err = fairtask.SolveProblemContext(ctx, b.prob, b.opt)
		}
		lat = append(lat, time.Since(start))
		if err != nil {
			res = nil
		}
		b.results = append(b.results, res)
	}
	return lat, nil
}

// tracedSolve replicates SolveProblem's per-center layer calls with the
// platform's fan-out over GOMAXPROCS goroutines, timing each call.
func (b *batchBench) tracedSolve(ctx context.Context) (*fairtask.ProblemResult, error) {
	ins := b.prob.Instances
	cs := make([]*centerTrace, len(ins))
	errs := make([]error, len(ins))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range ins {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			cs[i], errs[i] = traceCenter(ctx, &ins[i], b.opt.VDPS, false, b.opt.Seed)
		}(i)
	}
	wg.Wait()
	res := &fairtask.ProblemResult{PerCenter: make([]*game.Result, len(ins))}
	for i, c := range cs {
		if errs[i] != nil {
			return nil, fmt.Errorf("center %d: %w", ins[i].CenterID, errs[i])
		}
		res.PerCenter[i] = c.res
		res.Payoffs = append(res.Payoffs, c.res.Summary.Payoffs...)
	}
	res.Difference = payoff.Difference(res.Payoffs)
	res.Average = payoff.Average(res.Payoffs)
	b.acc.addGroup(cs, false)
	return res, nil
}

// prepare takes the warm-up's last output as the reference, audits every
// center with the library's audit options, pins every center bit-for-bit
// to game.ReferenceFGT on its generator, and checks that the dynamics
// switch.
func (b *batchBench) prepare(ctx context.Context) error {
	if len(b.results) == 0 || b.results[len(b.results)-1] == nil {
		return fmt.Errorf("batch: warm-up solve failed")
	}
	b.ref = b.results[len(b.results)-1]
	var iterations, switches int
	for i := range b.prob.Instances {
		in := &b.prob.Instances[i]
		g, err := vdps.GenerateContext(ctx, in, b.opt.VDPS)
		if err != nil {
			return err
		}
		got := b.ref.PerCenter[i]
		start := time.Now()
		rep := audit.Run(in, got.Assignment, &got.Summary, audit.Options{
			Generator: g,
			VDPS:      b.opt.VDPS,
			Algorithm: string(fairtask.AlgFGT),
			Converged: got.Converged,
		})
		b.auditTime += time.Since(start)
		if !rep.OK() {
			b.fail(fmt.Errorf("batch: center %d fails audit: %w", in.CenterID, rep.Err()))
		}
		want, err := game.ReferenceFGT(ctx, g, game.Options{Seed: b.opt.Seed, Trace: true})
		if err != nil {
			return err
		}
		if !sameResult(got, want) {
			b.fail(fmt.Errorf("batch: center %d differs from ReferenceFGT", in.CenterID))
		}
		iterations += want.Iterations
		for _, st := range want.Trace {
			switches += st.Changes
		}
	}
	if switches == 0 || iterations <= len(b.prob.Instances) {
		b.fail(fmt.Errorf("batch: trivial dynamics: %d switches, %d rounds over %d centers",
			switches, iterations, len(b.prob.Instances)))
	}
	return nil
}

func (b *batchBench) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// check compares every output of the last pass bit-for-bit with the
// audited reference.
func (b *batchBench) check(context.Context) int {
	failed := 0
	for _, res := range b.results {
		if res == nil || b.ref == nil || !sameProblemResult(res, b.ref) {
			failed++
			continue
		}
		b.outputs++
		b.pdif += res.Difference
		b.avg += res.Average
	}
	return failed
}

func (b *batchBench) verdict() error { return b.err }

func (b *batchBench) fairness() (float64, float64) {
	if b.outputs == 0 {
		return 0, 0
	}
	return b.pdif / float64(b.outputs), b.avg / float64(b.outputs)
}

func (b *batchBench) layers() (map[string]float64, time.Duration) {
	vals := map[string]float64{"audit.run_ms": ms64(b.auditTime)}
	b.acc.metrics(vals)
	return vals, b.acc.criticalPerGroup()
}

// sameProblemResult reports whether two multi-center results are
// bit-identical center by center.
func sameProblemResult(a, b *fairtask.ProblemResult) bool {
	if a.Difference != b.Difference || a.Average != b.Average || len(a.PerCenter) != len(b.PerCenter) {
		return false
	}
	for i := range a.PerCenter {
		if !sameResult(a.PerCenter[i], b.PerCenter[i]) {
			return false
		}
	}
	return true
}
