// Package lp implements a small, dependency-free linear-programming solver:
// a dense two-phase primal simplex with Bland anti-cycling fallback.
//
// It exists to compute the *fractional offline optimum* of admission-control
// instances (a covering LP: minimize rejected cost subject to per-edge excess
// constraints), which Theorem 2 of the paper uses as the comparison baseline
// and which lower-bounds the integral optimum. The solver is deliberately
// simple and dense — experiment instances keep it well inside its comfort
// zone (hundreds of rows, a few thousand columns) — and exhaustively tested
// against hand-solved programs and feasibility/optimality properties.
//
// Concurrency contract: solves are pure functions of their inputs with no
// package-level state, so distinct solves may run concurrently (the
// harness's parallel sweeps do); a single LP value must not be solved or
// mutated from two goroutines at once.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Relation is the sense of one constraint row.
type Relation int8

// Constraint senses.
const (
	LE Relation = iota // a·x <= b
	GE                 // a·x >= b
	EQ                 // a·x == b
)

// String renders the relation as its comparison operator.
func (r Relation) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	default:
		return fmt.Sprintf("Relation(%d)", int8(r))
	}
}

// Status reports the outcome of Solve.
type Status int8

// Solver outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

// String names the solver outcome.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("Status(%d)", int8(s))
	}
}

// Problem is a linear program
//
//	minimize    C·x
//	subject to  A[i]·x  Rel[i]  B[i]   for every row i
//	            0 <= x[j] <= UB[j]     for every variable j
//
// UB may be nil, meaning all variables are unbounded above. Individual
// entries may be math.Inf(1).
type Problem struct {
	C   []float64
	A   [][]float64
	B   []float64
	Rel []Relation
	UB  []float64
}

// Solution is the result of Solve.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
}

const (
	tol     = 1e-9
	feasTol = 1e-7
)

// Validate checks the problem dimensions.
func (p *Problem) Validate() error {
	n := len(p.C)
	if n == 0 {
		return errors.New("lp: empty objective")
	}
	if len(p.A) != len(p.B) || len(p.A) != len(p.Rel) {
		return fmt.Errorf("lp: inconsistent row counts A=%d B=%d Rel=%d", len(p.A), len(p.B), len(p.Rel))
	}
	for i, row := range p.A {
		if len(row) != n {
			return fmt.Errorf("lp: row %d has %d coefficients, want %d", i, len(row), n)
		}
	}
	if p.UB != nil && len(p.UB) != n {
		return fmt.Errorf("lp: UB has %d entries, want %d", len(p.UB), n)
	}
	if p.UB != nil {
		for j, u := range p.UB {
			if u < 0 {
				return fmt.Errorf("lp: UB[%d] = %v < 0", j, u)
			}
		}
	}
	return nil
}

// tableau is the dense simplex tableau. Row 0..m-1 are constraints; the
// objective is kept separately as reduced costs recomputed per phase.
type tableau struct {
	m, n  int         // constraint rows, total columns (structural+slack+artificial)
	a     [][]float64 // m x n
	b     []float64   // m
	basis []int       // basic column of each row
}

// Solve runs two-phase primal simplex. The iteration limit scales with the
// problem size; hitting it returns Status IterLimit rather than looping.
func Solve(p *Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	nStruct := len(p.C)

	// Expand finite upper bounds into extra <= rows. Simple and adequate for
	// our covering LPs, where UB is the all-ones vector.
	rows := make([][]float64, 0, len(p.A)+nStruct)
	rhs := make([]float64, 0, len(p.B)+nStruct)
	rels := make([]Relation, 0, len(p.Rel)+nStruct)
	for i := range p.A {
		row := append([]float64(nil), p.A[i]...)
		b := p.B[i]
		rel := p.Rel[i]
		if b < 0 { // canonicalize to b >= 0
			for j := range row {
				row[j] = -row[j]
			}
			b = -b
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		rows = append(rows, row)
		rhs = append(rhs, b)
		rels = append(rels, rel)
	}
	if p.UB != nil {
		for j, u := range p.UB {
			if math.IsInf(u, 1) {
				continue
			}
			row := make([]float64, nStruct)
			row[j] = 1
			rows = append(rows, row)
			rhs = append(rhs, u)
			rels = append(rels, LE)
		}
	}

	m := len(rows)
	if m == 0 {
		// Unconstrained minimization over x >= 0: optimum is x = 0 unless
		// some cost is negative, in which case the LP is unbounded.
		for _, c := range p.C {
			if c < -tol {
				return Solution{Status: Unbounded}, nil
			}
		}
		return Solution{Status: Optimal, X: make([]float64, nStruct)}, nil
	}

	// Column layout: structural | slack/surplus | artificial.
	nSlack := 0
	for _, r := range rels {
		if r != EQ {
			nSlack++
		}
	}
	// Artificials for GE and EQ rows.
	nArt := 0
	for _, r := range rels {
		if r != LE {
			nArt++
		}
	}
	n := nStruct + nSlack + nArt

	t := &tableau{m: m, n: n}
	t.a = make([][]float64, m)
	t.b = append([]float64(nil), rhs...)
	t.basis = make([]int, m)
	slackCol := nStruct
	artCol := nStruct + nSlack
	artStart := artCol
	for i := 0; i < m; i++ {
		t.a[i] = make([]float64, n)
		copy(t.a[i], rows[i])
		switch rels[i] {
		case LE:
			t.a[i][slackCol] = 1
			t.basis[i] = slackCol
			slackCol++
		case GE:
			t.a[i][slackCol] = -1
			slackCol++
			t.a[i][artCol] = 1
			t.basis[i] = artCol
			artCol++
		case EQ:
			t.a[i][artCol] = 1
			t.basis[i] = artCol
			artCol++
		}
	}

	maxIter := 200 * (m + n)

	if nArt > 0 {
		// Phase 1: minimize the sum of artificials.
		c1 := make([]float64, n)
		for j := artStart; j < n; j++ {
			c1[j] = 1
		}
		status := t.optimize(c1, maxIter)
		if status == IterLimit {
			return Solution{Status: IterLimit}, nil
		}
		if status == Unbounded {
			// Phase 1 objective is bounded below by 0; unbounded indicates
			// a numerical breakdown.
			return Solution{}, errors.New("lp: phase-1 reported unbounded")
		}
		if t.objective(c1) > feasTol {
			return Solution{Status: Infeasible}, nil
		}
		// Drive any artificial still in the basis out (degenerate at 0),
		// then freeze artificial columns at zero for phase 2.
		for i := 0; i < m; i++ {
			if t.basis[i] < artStart {
				continue
			}
			pivoted := false
			for j := 0; j < artStart; j++ {
				if math.Abs(t.a[i][j]) > tol {
					t.pivot(i, j)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Row is all zeros among real columns: redundant constraint.
				// Leave the zero-valued artificial basic; it cannot re-enter
				// because phase 2 never picks artificial entering columns.
			}
		}
	}

	// Phase 2: original objective over structural columns; artificials get a
	// prohibitive cost of +inf conceptually — we simply never let them enter
	// by assigning them zero cost but excluding them from pricing.
	c2 := make([]float64, n)
	copy(c2, p.C)
	status := t.optimizeExcluding(c2, artStart, maxIter)
	switch status {
	case IterLimit:
		return Solution{Status: IterLimit}, nil
	case Unbounded:
		return Solution{Status: Unbounded}, nil
	}

	x := make([]float64, nStruct)
	for i, bcol := range t.basis {
		if bcol < nStruct {
			x[bcol] = t.b[i]
		}
	}
	obj := 0.0
	for j, c := range p.C {
		obj += c * x[j]
	}
	return Solution{Status: Optimal, X: x, Objective: obj}, nil
}

// objective evaluates c over the current basic solution.
func (t *tableau) objective(c []float64) float64 {
	v := 0.0
	for i, bcol := range t.basis {
		v += c[bcol] * t.b[i]
	}
	return v
}

// optimize runs primal simplex minimizing c over all columns.
func (t *tableau) optimize(c []float64, maxIter int) Status {
	return t.optimizeExcluding(c, t.n, maxIter)
}

// optimizeExcluding runs primal simplex minimizing c, never letting columns
// with index >= excludeFrom enter the basis.
func (t *tableau) optimizeExcluding(c []float64, excludeFrom, maxIter int) Status {
	// y holds the simplex multipliers implicitly via reduced-cost
	// computation from the (dense) tableau: since we maintain the full
	// tableau in product form (explicitly pivoted), the reduced cost of
	// column j is c_j - sum_i c_basis[i] * a[i][j].
	blandAfter := maxIter / 2
	for iter := 0; iter < maxIter; iter++ {
		useBland := iter >= blandAfter
		enter := -1
		best := -tol
		for j := 0; j < excludeFrom; j++ {
			rc := c[j]
			for i := 0; i < t.m; i++ {
				cb := c[t.basis[i]]
				if cb != 0 {
					rc -= cb * t.a[i][j]
				}
			}
			if rc < -tol {
				if useBland {
					enter = j
					break
				}
				if rc < best {
					best = rc
					enter = j
				}
			}
		}
		if enter == -1 {
			return Optimal
		}
		// Ratio test.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < t.m; i++ {
			if t.a[i][enter] > tol {
				ratio := t.b[i] / t.a[i][enter]
				if ratio < bestRatio-tol || (useBland && ratio < bestRatio+tol && (leave == -1 || t.basis[i] < t.basis[leave])) {
					bestRatio = ratio
					leave = i
				}
			}
		}
		if leave == -1 {
			return Unbounded
		}
		t.pivot(leave, enter)
	}
	return IterLimit
}

// pivot performs a Gauss-Jordan pivot on (row, col) and updates the basis.
func (t *tableau) pivot(row, col int) {
	piv := t.a[row][col]
	inv := 1 / piv
	for j := 0; j < t.n; j++ {
		t.a[row][j] *= inv
	}
	t.b[row] *= inv
	t.a[row][col] = 1 // avoid residual rounding on the pivot itself
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		f := t.a[i][col]
		if f == 0 {
			continue
		}
		for j := 0; j < t.n; j++ {
			t.a[i][j] -= f * t.a[row][j]
		}
		t.a[i][col] = 0
		t.b[i] -= f * t.b[row]
	}
	t.basis[row] = col
	// Clamp tiny negative RHS caused by rounding; simplex invariants keep
	// b >= 0.
	for i := range t.b {
		if t.b[i] < 0 && t.b[i] > -tol {
			t.b[i] = 0
		}
	}
}

// CheckFeasible reports whether x satisfies the problem's constraints and
// bounds to within feasTol; it returns a descriptive error otherwise.
func CheckFeasible(p *Problem, x []float64) error {
	if len(x) != len(p.C) {
		return fmt.Errorf("lp: solution has %d entries, want %d", len(x), len(p.C))
	}
	for j, v := range x {
		if v < -feasTol {
			return fmt.Errorf("lp: x[%d] = %v < 0", j, v)
		}
		if p.UB != nil && v > p.UB[j]+feasTol {
			return fmt.Errorf("lp: x[%d] = %v > ub %v", j, v, p.UB[j])
		}
	}
	for i, row := range p.A {
		dot := 0.0
		for j := range row {
			dot += row[j] * x[j]
		}
		switch p.Rel[i] {
		case LE:
			if dot > p.B[i]+feasTol {
				return fmt.Errorf("lp: row %d: %v > %v", i, dot, p.B[i])
			}
		case GE:
			if dot < p.B[i]-feasTol {
				return fmt.Errorf("lp: row %d: %v < %v", i, dot, p.B[i])
			}
		case EQ:
			if math.Abs(dot-p.B[i]) > feasTol {
				return fmt.Errorf("lp: row %d: %v != %v", i, dot, p.B[i])
			}
		}
	}
	return nil
}
