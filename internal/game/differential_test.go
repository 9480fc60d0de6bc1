package game

import (
	"context"
	"fmt"
	"testing"

	"fairtask/internal/model"
	"fairtask/internal/vdps"
)

// sameResult requires bit-identical results: the index-backed solver must
// reproduce the reference's assignment, iteration count, convergence flag,
// switch count (which must also equal the trace's summed changes), summary,
// and trace exactly — not approximately.
func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		t.Fatalf("%s: (iterations, converged) = (%d, %v), reference (%d, %v)",
			label, got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
	if got.Switches != want.Switches {
		t.Fatalf("%s: switches = %d, reference %d", label, got.Switches, want.Switches)
	}
	if len(got.Trace) > 0 {
		changes := 0
		for _, st := range got.Trace {
			changes += st.Changes
		}
		if got.Switches != changes {
			t.Fatalf("%s: switches = %d, trace changes sum to %d", label, got.Switches, changes)
		}
	}
	if len(got.Assignment.Routes) != len(want.Assignment.Routes) {
		t.Fatalf("%s: %d routes, reference %d", label,
			len(got.Assignment.Routes), len(want.Assignment.Routes))
	}
	for w := range want.Assignment.Routes {
		if !routeEqual(got.Assignment.Routes[w], want.Assignment.Routes[w]) {
			t.Fatalf("%s: worker %d route %v, reference %v",
				label, w, got.Assignment.Routes[w], want.Assignment.Routes[w])
		}
	}
	if got.Summary.Difference != want.Summary.Difference ||
		got.Summary.Average != want.Summary.Average ||
		got.Summary.Total != want.Summary.Total ||
		got.Summary.Min != want.Summary.Min ||
		got.Summary.Max != want.Summary.Max ||
		got.Summary.Assigned != want.Summary.Assigned {
		t.Fatalf("%s: summary %+v, reference %+v", label, got.Summary, want.Summary)
	}
	if len(got.Trace) != len(want.Trace) {
		t.Fatalf("%s: trace length %d, reference %d", label, len(got.Trace), len(want.Trace))
	}
	for i := range want.Trace {
		if got.Trace[i] != want.Trace[i] {
			t.Fatalf("%s: trace[%d] = %+v, reference %+v", label, i, got.Trace[i], want.Trace[i])
		}
	}
}

// prioritized assigns distinct worker priorities so the priority-aware path
// actually normalizes by different divisors.
func prioritized(in *model.Instance) *model.Instance {
	for w := range in.Workers {
		in.Workers[w].Priority = 0.5 + float64(w%4)
	}
	return in
}

// TestFGTMatchesReference pins the index-backed FGT bit-exactly against the
// retained pre-index implementation across instance shapes, seeds, and the
// option variants that alter the hot loop (priorities, random order,
// tracing, epsilon).
func TestFGTMatchesReference(t *testing.T) {
	instances := map[string]*model.Instance{
		"small":    gridInstance(8, 4, 2, 100),
		"mid":      gridInstance(14, 6, 3, 50),
		"tight":    gridInstance(10, 8, 2, 6),
		"priority": prioritized(gridInstance(12, 5, 2, 100)),
	}
	variants := map[string]Options{
		"default":    {},
		"priorities": {UsePriorities: true},
		"random":     {RandomOrder: true},
		"trace":      {Trace: true},
		"epsilon":    {EpsilonUtility: 0.05, Trace: true},
	}
	for iname, in := range instances {
		g := mustGen(t, in)
		for vname, opt := range variants {
			for seed := int64(0); seed < 4; seed++ {
				opt := opt
				opt.Seed = seed
				got, err := FGT(context.Background(), g, opt)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ReferenceFGT(context.Background(), g, opt)
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, iname+"/"+vname, got, want)
			}
		}
	}
}

// TestVerifyNEAcceptsFGTResult keeps the index-backed certificate consistent
// with the index-backed solver, in both plain and priority modes.
func TestVerifyNEAcceptsFGTResult(t *testing.T) {
	for _, use := range []bool{false, true} {
		in := prioritized(gridInstance(10, 5, 2, 100))
		g := mustGen(t, in)
		opt := Options{Seed: 3, UsePriorities: use}
		res, err := FGT(context.Background(), g, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("usePriorities=%v: FGT did not converge", use)
		}
		ne := NEOptions{Tol: 1e-9}
		if use {
			ne.Priorities = workerPriorities(in, true)
		}
		if err := VerifyNEOpts(g, res.Assignment, ne); err != nil {
			t.Fatalf("usePriorities=%v: %v", use, err)
		}
	}
}

// TestNewStateParallelMatchesSequential pins the sharded strategy-space
// construction to the sequential one: same candidates, same order, same
// payoffs. Run with -race this also exercises the shard boundaries.
func TestNewStateParallelMatchesSequential(t *testing.T) {
	in := gridInstance(16, 12, 2, 100)
	seq, err := vdps.Generate(in, vdps.Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := vdps.Generate(in, vdps.Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, b := NewState(seq), NewState(par)
	if len(a.Strategies) != len(b.Strategies) {
		t.Fatalf("worker counts differ: %d vs %d", len(a.Strategies), len(b.Strategies))
	}
	for w := range a.Strategies {
		if len(a.Strategies[w]) != len(b.Strategies[w]) {
			t.Fatalf("worker %d: %d strategies sequential, %d parallel",
				w, len(a.Strategies[w]), len(b.Strategies[w]))
		}
		for si := range a.Strategies[w] {
			// StrategyRef is comparable; equal refs imply equal sequences.
			if x, y := a.Strategies[w][si], b.Strategies[w][si]; x != y {
				t.Fatalf("worker %d strategy %d differs: %+v vs %+v", w, si, x, y)
			}
		}
	}
}

// TestFGTRecorderMatchesReference pins the per-solve switch count that
// feeds the strategy-changes metric: counted without Trace, it must match
// the reference and the summed per-round changes of a traced run.
func TestFGTRecorderMatchesReference(t *testing.T) {
	g := mustGen(t, gridInstance(12, 6, 2, 100))
	for seed := int64(0); seed < 3; seed++ {
		got, err := FGT(context.Background(), g, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		want, err := ReferenceFGT(context.Background(), g, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("seed %d", seed), got, want)
		traced, err := ReferenceFGT(context.Background(), g, Options{Seed: seed, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		changes := 0
		for _, st := range traced.Trace {
			changes += st.Changes
		}
		if got.Switches != changes {
			t.Fatalf("seed %d: untraced switches = %d, traced reference changes sum to %d",
				seed, got.Switches, changes)
		}
	}
}
