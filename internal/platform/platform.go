// Package platform is the spatial-crowdsourcing platform substrate: it runs
// task assignment over many distribution centers in parallel (the paper
// notes in §VII-A that assignment across centers is independent) and
// simulates the worker lifecycle over repeated assignment epochs — workers
// go offline while executing an assigned delivery point sequence and return
// when done, tasks expire if left unassigned, and new tasks may arrive.
package platform

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"fairtask/internal/assign"
	"fairtask/internal/audit"
	"fairtask/internal/fault"
	"fairtask/internal/game"
	"fairtask/internal/model"
	"fairtask/internal/obs"
	"fairtask/internal/payoff"
	"fairtask/internal/vdps"
)

// Options configure a one-shot multi-center assignment.
type Options struct {
	// VDPS configures candidate generation per center.
	VDPS vdps.Options
	// Parallelism bounds concurrent per-center solves. Zero means
	// runtime.GOMAXPROCS(0). Ignored when Pool is set.
	Parallelism int
	// Pool, when set, runs per-center solves on the shared long-lived
	// worker pool instead of per-call goroutines — the batch throughput
	// mode for serving many independent assignments concurrently. The
	// pool's size replaces Parallelism; result aggregation is unchanged
	// and stays in center order, so results are identical either way.
	Pool *Pool
	// Recorder receives one obs.VDPSEvent per successful candidate
	// generation, one obs.SolveEvent per completed center solve and one
	// obs.AssignEvent for the whole assignment. Nil disables telemetry.
	Recorder obs.Recorder
	// Audit enables independent re-verification of every per-center result;
	// the reports land in Result.Audit. Every audit parameter is derived
	// from the solve itself: the center's own generator (so auditing adds no
	// second candidate generation), the algorithm name and convergence of
	// the solver that served the rung, and — for an FGT solver — its
	// Fairness, EpsilonUtility and UsePriorities for the equilibrium
	// certificate. Violations are reported, not fatal — policy is the
	// caller's (the library fails the solve, the HTTP service returns the
	// report).
	Audit bool
	// Retry retries each per-center solve attempt (candidate generation +
	// solver run) under this policy. Nil or MaxAttempts < 2 disables
	// retrying. Context cancellation and deadline expiry are never retried.
	Retry *fault.RetryPolicy
	// Degrade enables the exact→sampled→greedy degradation ladder for
	// per-center solves; see Degrade. Nil (the default) means exact-only:
	// a failed solve fails the assignment.
	Degrade *Degrade
}

// Result is the outcome of a one-shot multi-center assignment.
type Result struct {
	// PerCenter holds each instance's result, indexed like
	// Problem.Instances.
	PerCenter []*game.Result
	// Payoffs concatenates all workers' payoffs across centers.
	Payoffs []float64
	// Difference is P_dif over all workers of all centers.
	Difference float64
	// Average is the mean payoff over all workers of all centers.
	Average float64
	// Elapsed is the wall-clock time of the whole solve.
	Elapsed time.Duration
	// Audit holds the per-center audit reports when Options.Audit was set,
	// indexed like PerCenter (nil entries for centers without workers,
	// which produce empty assignments without a solver run).
	Audit []*audit.Report
	// Degraded is the worst degradation rung that served any center
	// ("" = every center solved exactly, RungSampled, RungGreedy); see
	// the per-center rungs in PerCenter[i].Degraded.
	Degraded string
}

// AuditOK reports whether every executed audit passed. It is vacuously true
// when auditing was disabled.
func (r *Result) AuditOK() bool {
	for _, rep := range r.Audit {
		if rep != nil && !rep.OK() {
			return false
		}
	}
	return true
}

// AuditErr returns the first failed audit report's error, wrapped with its
// center, or nil when every audit passed.
func (r *Result) AuditErr(p *model.Problem) error {
	for i, rep := range r.Audit {
		if rep != nil && !rep.OK() {
			return fmt.Errorf("center %d: %w", p.Instances[i].CenterID, rep.Err())
		}
	}
	return nil
}

// EmptyResult is the equilibrium of an instance without workers: the empty
// assignment, trivially converged. Workerless centers and solves yield it
// instead of the solvers' game.ErrNoWorkers, so a center (or a streaming
// engine) can drain to zero workers and refill.
func EmptyResult(in *model.Instance) *game.Result {
	a := model.NewAssignment(0)
	return &game.Result{Assignment: a, Summary: payoff.Summarize(in, a), Converged: true}
}

// ErrNoInstances is returned for a problem without instances.
var ErrNoInstances = errors.New("platform: problem has no instances")

// Assign solves every instance of the problem with the given algorithm,
// fanning centers out over Parallelism goroutines, and aggregates the
// paper's metrics over the full worker population.
func Assign(p *model.Problem, solver assign.Assigner, opt Options) (*Result, error) {
	return AssignContext(context.Background(), p, solver, opt)
}

// AssignContext is Assign with cancellation: centers not yet started when
// ctx is done are skipped, in-flight per-center solves observe ctx at their
// iteration boundaries and stop early, and the context error is returned.
func AssignContext(ctx context.Context, p *model.Problem, solver assign.Assigner, opt Options) (*Result, error) {
	if len(p.Instances) == 0 {
		return nil, ErrNoInstances
	}
	par := opt.Parallelism
	if opt.Pool != nil {
		par = opt.Pool.Size()
	} else if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	ctx, asp := obs.StartSpan(ctx, "assign")
	asp.SetAttrInt("centers", len(p.Instances))
	asp.SetAttr("algorithm", solver.Name())
	defer asp.End()
	start := time.Now()
	res := &Result{PerCenter: make([]*game.Result, len(p.Instances))}
	if opt.Audit {
		res.Audit = make([]*audit.Report, len(p.Instances))
	}
	var sem chan struct{}
	if opt.Pool == nil {
		sem = make(chan struct{}, par)
	} else {
		opt.Pool.batchStarted()
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error

	for i := range p.Instances {
		if err := ctx.Err(); err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			break
		}
		// Centers without workers yield an empty result without a solver
		// run (or an audit): there is nothing to assign.
		if len(p.Instances[i].Workers) == 0 {
			res.PerCenter[i] = EmptyResult(&p.Instances[i])
			continue
		}
		i := i
		solveCenter := func() {
			defer wg.Done()
			csp := asp.Child("center.solve")
			csp.SetAttrInt("center", p.Instances[i].CenterID)
			defer csp.End()
			r, rep, err := SolveInstance(obs.ContextWithSpan(ctx, csp), &p.Instances[i], solver, opt)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("center %d: %w", p.Instances[i].CenterID, err)
				}
				return
			}
			res.PerCenter[i] = r
			if res.Audit != nil {
				res.Audit[i] = rep
			}
		}
		wg.Add(1)
		if opt.Pool != nil {
			// Submit blocks while the shared queue is full, throttling
			// concurrent batches against each other instead of spawning
			// one goroutine per center.
			opt.Pool.Submit(solveCenter)
			continue
		}
		sem <- struct{}{}
		go func() {
			defer func() { <-sem }()
			solveCenter()
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	for _, r := range res.PerCenter {
		res.Payoffs = append(res.Payoffs, r.Summary.Payoffs...)
		res.Degraded = worseRung(res.Degraded, r.Degraded)
	}
	res.Difference = payoff.Difference(res.Payoffs)
	res.Average = payoff.Average(res.Payoffs)
	res.Elapsed = time.Since(start)
	if opt.Recorder != nil {
		var points int
		for i := range p.Instances {
			points += len(p.Instances[i].Points)
		}
		opt.Recorder.RecordAssign(obs.AssignEvent{
			Algorithm:   solver.Name(),
			Centers:     len(p.Instances),
			Workers:     len(res.Payoffs),
			Points:      points,
			Parallelism: par,
			Elapsed:     res.Elapsed,
		})
	}
	return res, nil
}
