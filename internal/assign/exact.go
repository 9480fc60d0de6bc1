package assign

import (
	"context"
	"errors"

	"fairtask/internal/game"
	"fairtask/internal/payoff"
	"fairtask/internal/vdps"
)

// Exact is a reference solver for the FTA objective. The paper states FTA
// as a lexicographic bi-objective — minimize P_dif, then maximize the
// average payoff — whose literal optimum is degenerate (the empty
// assignment has P_dif = 0). Exact therefore optimizes the standard
// scalarization used by related work (e.g. Chen et al.):
//
//	score = avg(payoffs) - Lambda * P_dif(payoffs)
//
// over the full joint strategy space. FTA is NP-hard, so Exact is only
// usable on small instances; its purpose is measuring the optimality gap of
// the heuristics (see the "optgap" experiment).
type Exact struct {
	// Lambda weights the fairness term. Zero means the default of 1; a
	// non-positive value (use the NoLambda constant) drops the fairness
	// term entirely and maximizes the pure average payoff.
	Lambda float64
	// MaxJointStrategies aborts with ErrSearchTooLarge when the product of
	// per-worker strategy counts exceeds it. Zero means the default of 5e6.
	MaxJointStrategies float64
}

// ErrSearchTooLarge is returned when the joint strategy space exceeds
// Exact.MaxJointStrategies.
var ErrSearchTooLarge = errors.New("assign: joint strategy space too large for exact search")

// NoLambda selects the pure welfare objective in Exact.Lambda: a literal 0
// cannot mean "no fairness term" because the zero value already selects the
// default weight of 1 — the same sentinel pattern as game.NoEpsilon and
// evo.NoTolerance. Any negative value behaves the same.
const NoLambda = -1

// Score is the scalarized FTA objective Exact maximizes.
func Score(payoffs []float64, lambda float64) float64 {
	return payoff.Average(payoffs) - lambda*payoff.Difference(payoffs)
}

// Name implements Assigner.
func (Exact) Name() string { return "EXACT" }

// Assign implements Assigner: an exhaustive oracleEnumerate walk keeping the
// first joint strategy whose Score beats the best so far by more than 1e-12,
// starting from the all-null baseline.
func (e Exact) Assign(ctx context.Context, g *vdps.Generator) (*game.Result, error) {
	n := len(g.Instance().Workers)
	if n == 0 {
		return nil, game.ErrNoWorkers
	}
	lambda := e.Lambda
	if lambda < 0 {
		lambda = 0 // NoLambda: pure average payoff
	} else if lambda == 0 {
		lambda = 1
	}
	best := make([]int, n)
	for w := range best {
		best[w] = game.Null
	}
	bestScore := Score(make([]float64, n), lambda) // all-null baseline
	s, err := oracleEnumerate(ctx, g, e.MaxJointStrategies, func(s *game.State, payoffs []float64) {
		if sc := Score(payoffs, lambda); sc > bestScore+1e-12 {
			bestScore = sc
			copy(best, s.Current)
		}
	})
	if err != nil {
		return nil, err
	}
	for w, si := range best {
		if si != game.Null {
			s.Switch(w, si)
		}
	}
	return &game.Result{
		Assignment: s.Assignment(),
		Summary:    s.Summary(),
		Iterations: 1,
		Converged:  true,
	}, nil
}
