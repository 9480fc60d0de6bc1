// Package audit independently re-verifies task assignments against the
// paper's guarantees. Solvers promise that their outputs are spatial task
// assignments per Definition 8 (disjoint routes, deadlines met, maxDP
// respected), that routes are drawn from the workers' Valid Delivery Point
// Sets (§IV), that the reported payoff metrics match Definition 7 and
// Equation 2, and — for the game-theoretic methods — that the result is an
// equilibrium (§V–§VI). A production assignment service must never silently
// violate these invariants, so this package re-derives every one of them
// from the instance alone, sharing no state with the solver that produced
// the assignment.
//
// The auditor is wired behind fairtask.Options.Audit, the HTTP service's
// audit query parameter, and the fta audit CLI subcommand; see docs/AUDIT.md.
package audit

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"fairtask/internal/assign"
	"fairtask/internal/evo"
	"fairtask/internal/fairness"
	"fairtask/internal/game"
	"fairtask/internal/model"
	"fairtask/internal/payoff"
	"fairtask/internal/vdps"
)

// Check identifies one audited invariant family.
type Check string

// The audited invariants, in execution order.
const (
	// CheckStructure re-derives Assignment.Validate's structural invariants:
	// one route per worker, in-range and duplicate-free routes, pairwise
	// disjointness, and maxDP.
	CheckStructure Check = "structure"
	// CheckDeadlines re-simulates every route with RouteArrivals and checks
	// each arrival against the point's earliest task expiration
	// (Definition 6).
	CheckDeadlines Check = "deadlines"
	// CheckSummary recomputes the per-worker payoffs, P_dif, average and the
	// remaining Summary fields from scratch and compares them with the
	// reported summary within tolerance.
	CheckSummary Check = "summary"
	// CheckVDPS verifies that every non-empty route is a sequence the
	// worker's candidate generator actually admits, and that the generator's
	// Pareto frontiers satisfy their monotonicity contract.
	CheckVDPS Check = "vdps-membership"
	// CheckEquilibrium verifies the equilibrium certificate: a pure Nash
	// equilibrium under the IAU utility for FGT, the improved evolutionary
	// stable state for IEGT.
	CheckEquilibrium Check = "equilibrium"
	// CheckLexifair verifies the leximin certificate for LEXIFAIR
	// assignments: an independent re-solve of every frozen level confirms
	// that no worker's minimum payoff can be raised without lowering a
	// poorer worker's.
	CheckLexifair Check = "lexifair"
)

// Violation is one broken invariant found by the auditor.
type Violation struct {
	// Check names the invariant family.
	Check Check `json:"check"`
	// Worker is the offending worker index, or -1 when the violation is not
	// attributable to a single worker.
	Worker int `json:"worker"`
	// Detail is a human-readable description of the violation.
	Detail string `json:"detail"`
}

// String renders the violation as "check: worker N: detail", dropping the
// worker part for violations not attributable to one worker.
func (v Violation) String() string {
	if v.Worker >= 0 {
		return fmt.Sprintf("%s: worker %d: %s", v.Check, v.Worker, v.Detail)
	}
	return fmt.Sprintf("%s: %s", v.Check, v.Detail)
}

// Report is the outcome of one audit run.
type Report struct {
	// Checks lists the invariant families that were executed.
	Checks []Check `json:"checks"`
	// Skipped lists the families that could not run: checks gated behind a
	// failed structure check, the summary comparison when no summary was
	// reported, or the equilibrium certificate when the algorithm has none
	// or the solver did not converge.
	Skipped []Check `json:"skipped,omitempty"`
	// Violations holds every broken invariant found.
	Violations []Violation `json:"violations,omitempty"`
	// Recomputed is the payoff summary the auditor derived from scratch
	// (independent of the solver's reported summary). Invalid routes are
	// treated as empty.
	Recomputed payoff.Summary `json:"-"`
}

// OK reports whether the audit found no violations.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Err returns nil for a clean report and an *Error wrapping the report
// otherwise.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	return &Error{Report: r}
}

// Error is the error form of a failed audit, carrying the full report.
type Error struct {
	Report *Report
}

// Error implements error, listing every violation.
func (e *Error) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "audit: %d violation(s)", len(e.Report.Violations))
	for _, v := range e.Report.Violations {
		b.WriteString("; ")
		b.WriteString(v.String())
	}
	return b.String()
}

// Options configure an audit run.
type Options struct {
	// Generator supplies the VDPS candidates for the membership and
	// equilibrium checks. Nil makes the auditor regenerate candidates from
	// the instance with the VDPS options below — fully independent, but as
	// expensive as the solver's own generation.
	Generator *vdps.Generator
	// VDPS configures candidate regeneration when Generator is nil. It must
	// match the options the assignment was solved with (in particular
	// Epsilon), or the equilibrium check may see strategies the solver never
	// had.
	VDPS vdps.Options
	// Fairness holds the IAU weights for the FGT equilibrium certificate;
	// the zero value means the paper's alpha = beta = 0.5.
	Fairness fairness.Params
	// EpsilonUtility is the utility-gain threshold below which a deviation
	// does not refute the FGT equilibrium; it must be at least the solver's
	// own threshold. Zero means the numerical default of 1e-9; any negative
	// value demands a strict equilibrium (see game.NEOptions.Tol).
	EpsilonUtility float64
	// UsePriorities switches the FGT certificate to the priority-aware IAU,
	// reading priorities from the instance (it must match the solve).
	UsePriorities bool
	// Tolerance is the relative tolerance for the summary comparison.
	// Zero means the numerical default of 1e-6; any negative value demands
	// bit-exact summaries, which the zero value cannot express.
	Tolerance float64
	// Algorithm is the name of the solver that produced the assignment
	// ("FGT", "IEGT", ...). Only FGT and IEGT have equilibrium
	// certificates; for other values CheckEquilibrium is skipped.
	Algorithm string
	// Converged reports whether the solver reached its fixed point. The
	// equilibrium certificate only applies to converged runs; an
	// iteration-capped run is allowed to be off-equilibrium.
	Converged bool
}

// Run audits the assignment against the instance. sum is the solver's
// reported summary; nil skips the summary comparison (the recomputed summary
// is still returned in the report). Run never panics on malformed
// assignments: structurally invalid routes are reported and excluded from
// the downstream checks.
func Run(in *model.Instance, a *model.Assignment, sum *payoff.Summary, opt Options) *Report {
	r := &Report{}
	if opt.Tolerance < 0 {
		opt.Tolerance = 0 // bit-exact summary comparison
	} else if opt.Tolerance == 0 {
		opt.Tolerance = 1e-6
	}

	// The algorithm's optimality certificate: the equilibrium check for
	// FGT/IEGT, the leximin check for LEXIFAIR, none otherwise. Every report
	// accounts for CheckEquilibrium (run or skipped); CheckLexifair appears
	// only on LEXIFAIR reports.
	var cert Check
	certs := []Check{CheckEquilibrium}
	switch opt.Algorithm {
	case "FGT", "IEGT":
		cert = CheckEquilibrium
	case "LEXIFAIR":
		cert = CheckLexifair
		certs = append(certs, CheckLexifair)
	}

	// Structure: worker count, per-route validity, disjointness, maxDP.
	r.Checks = append(r.Checks, CheckStructure)
	if len(a.Routes) != len(in.Workers) {
		r.violate(CheckStructure, -1, fmt.Sprintf("%d routes for %d workers",
			len(a.Routes), len(in.Workers)))
		// Nothing downstream is well-defined without a per-worker route map.
		r.Skipped = append(r.Skipped, CheckDeadlines, CheckSummary, CheckVDPS)
		r.Skipped = append(r.Skipped, certs...)
		return r
	}
	routeOK := r.checkStructure(in, a)

	// Deadlines: re-simulate arrivals for every structurally valid route.
	r.Checks = append(r.Checks, CheckDeadlines)
	r.checkDeadlines(in, a, routeOK)

	// Summary: recompute everything from scratch, then compare if reported.
	r.Recomputed = recompute(in, a, routeOK)
	if sum != nil {
		r.Checks = append(r.Checks, CheckSummary)
		r.checkSummary(sum, opt.Tolerance)
	} else {
		r.Skipped = append(r.Skipped, CheckSummary)
	}

	// VDPS: frontier contract plus route membership in the strategy spaces.
	r.Checks = append(r.Checks, CheckVDPS)
	g := opt.Generator
	if g == nil {
		var err error
		g, err = vdps.Generate(in, opt.VDPS)
		if err != nil {
			r.violate(CheckVDPS, -1, "candidate regeneration failed: "+err.Error())
			r.Skipped = append(r.Skipped, certs...)
			return r
		}
	}
	membershipOK := r.checkVDPS(in, g, a, routeOK)

	// The certificate is only meaningful for a converged run on an
	// assignment whose routes all live in the strategy spaces (otherwise
	// LoadAssignment fails and the membership violation is already reported).
	for _, c := range certs {
		if c != cert || !opt.Converged || !membershipOK {
			r.Skipped = append(r.Skipped, c)
			continue
		}
		r.Checks = append(r.Checks, c)
		if c == CheckLexifair {
			r.checkLexifair(g, a)
		} else {
			r.checkEquilibrium(in, g, a, opt)
		}
	}
	return r
}

func (r *Report) violate(c Check, worker int, detail string) {
	r.Violations = append(r.Violations, Violation{Check: c, Worker: worker, Detail: detail})
}

// checkStructure validates every route's indices, uniqueness, maxDP and
// cross-worker disjointness. It returns per-worker flags; a false entry means
// the route is not even indexable and must be excluded from arrival
// simulation and payoff computation (both would panic on it).
func (r *Report) checkStructure(in *model.Instance, a *model.Assignment) []bool {
	routeOK := make([]bool, len(a.Routes))
	owner := make(map[int]int, len(in.Points))
	for w, route := range a.Routes {
		routeOK[w] = true
		seen := make(map[int]bool, len(route))
		for _, p := range route {
			if p < 0 || p >= len(in.Points) {
				r.violate(CheckStructure, w, fmt.Sprintf(
					"route references point %d, instance has %d points", p, len(in.Points)))
				routeOK[w] = false
				continue
			}
			if seen[p] {
				r.violate(CheckStructure, w, fmt.Sprintf("route visits point %d twice", p))
				routeOK[w] = false
				continue
			}
			seen[p] = true
			if prev, taken := owner[p]; taken {
				r.violate(CheckStructure, w, fmt.Sprintf(
					"point %d already assigned to worker %d (routes overlap)", p, prev))
			} else {
				owner[p] = w
			}
		}
		if max := in.Workers[w].MaxDP; max > 0 && len(route) > max {
			r.violate(CheckStructure, w, fmt.Sprintf(
				"route has %d points, worker maxDP is %d", len(route), max))
		}
	}
	return routeOK
}

// checkDeadlines re-simulates each valid route and flags every stop whose
// arrival exceeds the point's earliest task expiration.
func (r *Report) checkDeadlines(in *model.Instance, a *model.Assignment, routeOK []bool) {
	for w, route := range a.Routes {
		if !routeOK[w] || len(route) == 0 {
			continue
		}
		arr := in.RouteArrivals(w, route)
		for i, p := range route {
			if e := in.Points[p].EarliestExpiry(); arr[i] > e {
				r.violate(CheckDeadlines, w, fmt.Sprintf(
					"arrives at point %d (stop %d) at %g, after its expiry %g", p, i, arr[i], e))
			}
		}
	}
}

// recompute derives the payoff summary from scratch. Structurally invalid
// routes contribute a zero payoff, like the null strategy.
func recompute(in *model.Instance, a *model.Assignment, routeOK []bool) payoff.Summary {
	clean := model.NewAssignment(len(a.Routes))
	for w, route := range a.Routes {
		if routeOK[w] {
			clean.Routes[w] = route
		}
	}
	return payoff.Summarize(in, clean)
}

// checkSummary compares the reported summary with the recomputed one.
func (r *Report) checkSummary(sum *payoff.Summary, tol float64) {
	got := &r.Recomputed
	if len(sum.Payoffs) != len(got.Payoffs) {
		r.violate(CheckSummary, -1, fmt.Sprintf(
			"reported %d payoffs, instance has %d workers", len(sum.Payoffs), len(got.Payoffs)))
		return
	}
	for w := range got.Payoffs {
		if !closeTo(sum.Payoffs[w], got.Payoffs[w], tol) {
			r.violate(CheckSummary, w, fmt.Sprintf(
				"reported payoff %g, recomputed %g", sum.Payoffs[w], got.Payoffs[w]))
		}
	}
	scalar := func(name string, reported, recomputed float64) {
		if !closeTo(reported, recomputed, tol) {
			r.violate(CheckSummary, -1, fmt.Sprintf(
				"reported %s %g, recomputed %g", name, reported, recomputed))
		}
	}
	scalar("payoff difference", sum.Difference, got.Difference)
	scalar("average payoff", sum.Average, got.Average)
	scalar("minimum payoff", sum.Min, got.Min)
	scalar("maximum payoff", sum.Max, got.Max)
	scalar("total payoff", sum.Total, got.Total)
	if sum.Assigned != got.Assigned {
		r.violate(CheckSummary, -1, fmt.Sprintf(
			"reported %d assigned workers, recomputed %d", sum.Assigned, got.Assigned))
	}
}

// closeTo reports |a-b| <= tol*(1+|b|): absolute near zero, relative at scale.
func closeTo(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(b))
}

// checkVDPS verifies the generator's frontier contract and that every valid
// non-empty route appears verbatim in its worker's strategy space. It returns
// whether every audited route is a member (gating the equilibrium check,
// which loads the assignment into a game state).
func (r *Report) checkVDPS(in *model.Instance, g *vdps.Generator, a *model.Assignment, routeOK []bool) bool {
	r.checkFrontiers(g)
	ok := true
	for w, route := range a.Routes {
		if !routeOK[w] || len(route) == 0 {
			if !routeOK[w] {
				ok = false
			}
			continue
		}
		found := false
		for _, st := range g.ForWorker(w) {
			if routesEqual(st.Seq, route) {
				found = true
				break
			}
		}
		if !found {
			r.violate(CheckVDPS, w, fmt.Sprintf(
				"route %v is not a valid delivery point sequence for this worker", route))
			ok = false
		}
	}
	return ok
}

// checkFrontiers asserts the candidates' Pareto-frontier contract: frontiers
// are non-empty, strictly ascending in both Time and Slack (dominance prunes
// any state that is no faster and no slacker than another), and every state's
// sequence is a permutation of the candidate's point set.
func (r *Report) checkFrontiers(g *vdps.Generator) {
	for ci := range g.Candidates() {
		c := &g.Candidates()[ci]
		if len(c.Frontier) == 0 {
			r.violate(CheckVDPS, -1, fmt.Sprintf("candidate %d has an empty frontier", ci))
			continue
		}
		for i, st := range c.Frontier {
			if !isPermutation(st.Seq, c.Points) {
				r.violate(CheckVDPS, -1, fmt.Sprintf(
					"candidate %d state %d: sequence %v does not visit point set %v",
					ci, i, st.Seq, c.Points))
			}
			if i == 0 {
				continue
			}
			prev := c.Frontier[i-1]
			if !(st.Time > prev.Time && st.Slack > prev.Slack) {
				r.violate(CheckVDPS, -1, fmt.Sprintf(
					"candidate %d frontier not strictly ascending: state %d (time %g, slack %g) after (time %g, slack %g)",
					ci, i, st.Time, st.Slack, prev.Time, prev.Slack))
			}
		}
	}
}

// isPermutation reports whether seq visits exactly the points of the sorted
// set, each once.
func isPermutation(seq model.Route, set []int) bool {
	if len(seq) != len(set) {
		return false
	}
	sorted := append([]int(nil), seq...)
	sort.Ints(sorted)
	for i := range sorted {
		if sorted[i] != set[i] {
			return false
		}
	}
	return true
}

func routesEqual(a, b model.Route) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkEquilibrium runs the algorithm's equilibrium certificate.
func (r *Report) checkEquilibrium(in *model.Instance, g *vdps.Generator, a *model.Assignment, opt Options) {
	switch opt.Algorithm {
	case "FGT":
		ne := game.NEOptions{Fairness: opt.Fairness, Tol: opt.EpsilonUtility}
		if opt.UsePriorities {
			ne.Priorities = make([]float64, len(in.Workers))
			for i := range in.Workers {
				ne.Priorities[i] = in.Workers[i].EffectivePriority()
			}
		}
		if err := game.VerifyNEOpts(g, a, ne); err != nil {
			r.violate(CheckEquilibrium, -1, err.Error())
		}
	case "IEGT":
		if err := evo.VerifyEquilibrium(g, a); err != nil {
			r.violate(CheckEquilibrium, -1, err.Error())
		}
	}
}

// checkLexifair runs the leximin certificate: assign.VerifyLexifair
// independently re-solves each frozen payoff level and rejects any
// assignment whose minimum could be raised without hurting a poorer worker.
func (r *Report) checkLexifair(g *vdps.Generator, a *model.Assignment) {
	if err := assign.VerifyLexifair(context.Background(), g, a, 0); err != nil {
		r.violate(CheckLexifair, -1, err.Error())
	}
}
