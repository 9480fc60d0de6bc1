package evo

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"fairtask/internal/obs"
)

// TestIEGTParallelMatchesReference pins the deterministic speculative
// candidate-gathering sweep bit-exactly against the sequential reference
// across seeds, scales, option variants and GOMAXPROCS values: identical
// assignment, iterations, convergence, summary, trace and — because rng
// draws happen only at commit time in visiting order — identical rng
// streams, regardless of goroutine count or core count.
func TestIEGTParallelMatchesReference(t *testing.T) {
	instances := map[string]int64{"small": 1, "large": 7}
	variants := map[string]Options{
		"default":   {},
		"trace":     {Trace: true},
		"tolerance": {Tolerance: 0.5},
		"strict":    {Tolerance: NoTolerance},
	}
	restore := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(restore)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for iname, iseed := range instances {
			in := gridInstance(10, 5, 2, 100, iseed)
			if iname == "large" {
				in = gridInstance(18, 12, 3, 60, iseed)
			}
			g := mustGen(t, in)
			for vname, base := range variants {
				for seed := int64(0); seed < 3; seed++ {
					for _, par := range []int{2, 4} {
						opt := base
						opt.Seed = seed
						opt.Parallel = par
						got, err := IEGT(context.Background(), g, opt)
						if err != nil {
							t.Fatal(err)
						}
						ref := opt
						ref.Parallel = 0
						want, err := ReferenceIEGT(context.Background(), g, ref)
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

// TestIEGTParallelSweepSpeculates proves the speculative phase actually runs
// under the adaptive heuristic — otherwise the bit-exactness tests above
// would be vacuous. Round spans record a "spec" attribute when phase A ran.
func TestIEGTParallelSweepSpeculates(t *testing.T) {
	g := mustGen(t, gridInstance(18, 12, 3, 60, 7))
	speculated := false
	for seed := int64(0); seed < 5 && !speculated; seed++ {
		tr := obs.NewTracer()
		root := tr.Root("test")
		ctx := obs.ContextWithSpan(context.Background(), root)
		if _, err := IEGT(ctx, g, Options{Seed: seed, Parallel: 4}); err != nil {
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

// TestIEGTMutationForcesSequential pins the mutation-mode fallback: with
// MutationRate > 0 every evaluation consumes rng draws, so the solver must
// run sequentially (no round span ever records a "spec" attribute) while
// still matching the reference bit-exactly.
func TestIEGTMutationForcesSequential(t *testing.T) {
	g := mustGen(t, gridInstance(10, 5, 2, 100, 1))
	for seed := int64(0); seed < 3; seed++ {
		tr := obs.NewTracer()
		root := tr.Root("test")
		ctx := obs.ContextWithSpan(context.Background(), root)
		opt := Options{Seed: seed, MutationRate: 0.3, Parallel: 4, Trace: true}
		got, err := IEGT(ctx, g, opt)
		if err != nil {
			t.Fatal(err)
		}
		root.End()
		for _, sp := range tr.Collect("test").Spans {
			if sp.Name == "round" && sp.Attr("spec") != "" {
				t.Fatalf("seed %d: mutation-mode round ran the speculative phase", seed)
			}
		}
		ref := opt
		ref.Parallel = 0
		want, err := ReferenceIEGT(context.Background(), g, ref)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("mutation/seed=%d", seed), got, want)
	}
}

// TestWithDefaultsToleranceSentinel is the regression test for the Tolerance
// zero-collapse bug, mirroring the game package's EpsilonUtility sentinel:
// the zero value keeps the numerical default, NoTolerance (and any negative
// value) selects an exact-zero tolerance, and positive values pass through.
func TestWithDefaultsToleranceSentinel(t *testing.T) {
	cases := []struct {
		in, want float64
	}{
		{0, 1e-9},
		{NoTolerance, 0},
		{-0.5, 0},
		{0.5, 0.5},
	}
	for _, c := range cases {
		got := Options{Tolerance: c.in}.withDefaults().Tolerance
		if got != c.want {
			t.Errorf("Tolerance %v: withDefaults -> %v, want %v", c.in, got, c.want)
		}
	}
}

// TestIEGTParallelRecorderMatchesReference pins the parallel sweep's switch
// count against the sequential reference: the speculative phase must not
// add or drop a single strategy change, with or without Trace.
func TestIEGTParallelRecorderMatchesReference(t *testing.T) {
	g := mustGen(t, gridInstance(14, 8, 2, 100, 3))
	for seed := int64(0); seed < 3; seed++ {
		got, err := IEGT(context.Background(), g, Options{Seed: seed, Parallel: 4})
		if err != nil {
			t.Fatal(err)
		}
		want, err := ReferenceIEGT(context.Background(), g, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("seed %d", seed), got, want)
		traced, err := ReferenceIEGT(context.Background(), g, Options{Seed: seed, Trace: true})
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
