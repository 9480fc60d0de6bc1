package game

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"fairtask/internal/fairness"
	"fairtask/internal/model"
	"fairtask/internal/obs"
)

// TestFGTParallelMatchesReference pins the deterministic speculative sweep
// bit-exactly against the sequential reference across seeds, scales, option
// variants and GOMAXPROCS values: same assignment, iterations, convergence,
// summary and trace, regardless of how many goroutines evaluate the
// speculative phase or how many cores schedule them.
func TestFGTParallelMatchesReference(t *testing.T) {
	instances := map[string]*model.Instance{
		"small": gridInstance(10, 6, 2, 100),
		"large": gridInstance(18, 12, 3, 60),
	}
	variants := map[string]Options{
		"default":    {},
		"priorities": {UsePriorities: true},
		"random":     {RandomOrder: true},
		"epsilon":    {EpsilonUtility: 0.05},
	}
	restore := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(restore)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for iname, in := range instances {
			if iname == "priorities" {
				in = prioritized(in)
			}
			g := mustGen(t, in)
			for vname, base := range variants {
				for seed := int64(0); seed < 3; seed++ {
					for _, par := range []int{2, 4} {
						opt := base
						opt.Seed = seed
						opt.Trace = true
						opt.Parallel = par
						got, err := FGT(context.Background(), g, opt)
						if err != nil {
							t.Fatal(err)
						}
						ref := opt
						ref.Parallel = 0
						want, err := ReferenceFGT(context.Background(), g, ref)
						if err != nil {
							t.Fatal(err)
						}
						label := fmt.Sprintf("procs=%d/%s/%s/seed=%d/par=%d",
							procs, iname, vname, seed, par)
						sameResult(t, label, got, want)
					}
				}
			}
		}
	}
}

// TestFGTParallelSweepSpeculates proves the speculative phase actually runs
// under the adaptive heuristic — without this, a heuristic that never fires
// would render every bit-exactness test above vacuous. The round spans
// record a "spec" attribute whenever phase A ran.
func TestFGTParallelSweepSpeculates(t *testing.T) {
	g := mustGen(t, gridInstance(18, 12, 3, 60))
	speculated := false
	for seed := int64(0); seed < 5 && !speculated; seed++ {
		tr := obs.NewTracer()
		root := tr.Root("test")
		ctx := obs.ContextWithSpan(context.Background(), root)
		if _, err := FGT(ctx, g, Options{Seed: seed, Parallel: 4}); err != nil {
			t.Fatal(err)
		}
		root.End()
		for _, sp := range tr.Collect("test").Spans {
			if sp.Name == "round" && sp.Attr("spec") != "" {
				speculated = true
				break
			}
		}
	}
	if !speculated {
		t.Fatal("no round ran the speculative parallel phase across 5 seeds; the heuristic never fires and the differential tests are vacuous")
	}
}

// TestWithDefaultsEpsilonSentinel is the regression test for the
// EpsilonUtility zero-collapse bug: the zero value keeps the numerical
// default, NoEpsilon (and any negative value) selects the strict best
// response with a threshold of exactly 0, and positive values pass through.
func TestWithDefaultsEpsilonSentinel(t *testing.T) {
	cases := []struct {
		in, want float64
	}{
		{0, 1e-12},
		{NoEpsilon, 0},
		{-0.5, 0},
		{0.05, 0.05},
	}
	for _, c := range cases {
		got := Options{EpsilonUtility: c.in}.withDefaults().EpsilonUtility
		if got != c.want {
			t.Errorf("EpsilonUtility %v: withDefaults -> %v, want %v", c.in, got, c.want)
		}
	}
	// The reference solver shares withDefaults, so the sentinel changes both
	// sides of the differential tests identically; a quick solve pins that
	// the strict threshold is accepted end to end.
	g := mustGen(t, gridInstance(8, 4, 2, 100))
	got, err := FGT(context.Background(), g, Options{Seed: 1, EpsilonUtility: NoEpsilon, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReferenceFGT(context.Background(), g, Options{Seed: 1, EpsilonUtility: NoEpsilon, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "noepsilon", got, want)
}

// TestVerifyNEStrictTolerance pins the NEOptions.Tol sentinel: negative
// demands a strict equilibrium, zero keeps the numerical default. A strict
// certificate must still accept a strict-best-response equilibrium.
func TestVerifyNEStrictTolerance(t *testing.T) {
	g := mustGen(t, gridInstance(10, 5, 2, 100))
	res, err := FGT(context.Background(), g, Options{Seed: 2, EpsilonUtility: NoEpsilon})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("FGT did not converge")
	}
	if err := VerifyNEOpts(g, res.Assignment, NEOptions{Tol: -1}); err != nil {
		t.Fatalf("strict certificate rejected a strict equilibrium: %v", err)
	}
}

// TestUtilityIndexZeroSkip is the property test for newUtilityIndex's
// construction shortcut: skipping Update for zero payoffs must be
// indistinguishable — bitwise, on every query — from explicitly updating
// every worker, in plain mode and in priority-normalized mode including the
// degenerate priorities (zero, negative, NaN) that normalization folds to 1.
func TestUtilityIndexZeroSkip(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name       string
		payoffs    []float64
		priorities []float64
	}{
		{"plain", []float64{0, 3.5, 0, 1.25, 7, 0}, nil},
		{"allzero", []float64{0, 0, 0, 0}, nil},
		{"priority", []float64{0, 3.5, 0, 1.25, 7, 0}, []float64{2, 0.5, 1, 3, 0.25, 4}},
		{"degenerate-priority", []float64{0, 2, 0, 5}, []float64{0, -1, 2, 0.5}},
		{"nan-priority", []float64{0, 2, 4, 5}, []float64{nan, 2, nan, 0.5}},
	}
	prm := fairness.DefaultParams()
	for _, c := range cases {
		n := len(c.payoffs)
		s := &State{Current: make([]int, n), Payoffs: c.payoffs}
		skip := newUtilityIndex(s, prm, c.priorities)
		full := fairness.NewIndex(prm, n, c.priorities)
		for w, p := range c.payoffs {
			full.Update(w, p)
		}
		for w := 0; w < n; w++ {
			for _, q := range []float64{0, 0.5, 1.25, 3.5, 7, 100} {
				a, b := skip.Utility(w, q), full.Utility(w, q)
				if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
					t.Fatalf("%s: Utility(%d, %v) = %v with zero-skip, %v with full updates",
						c.name, w, q, a, b)
				}
			}
			if a, b := skip.CurrentUtility(w), full.CurrentUtility(w); a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
				t.Fatalf("%s: CurrentUtility(%d) = %v with zero-skip, %v with full updates", c.name, w, a, b)
			}
		}
	}
}

// TestFGTParallelRecorderMatchesReference pins the parallel sweep's switch
// count against the sequential reference: the speculative phase must not
// add or drop a single strategy change, with or without Trace.
func TestFGTParallelRecorderMatchesReference(t *testing.T) {
	g := mustGen(t, gridInstance(14, 8, 2, 100))
	for seed := int64(0); seed < 3; seed++ {
		got, err := FGT(context.Background(), g, Options{Seed: seed, Parallel: 4})
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
