package relstore

import (
	"strings"
	"testing"

	"repro/internal/model"
)

func TestExplainCoversAllNodes(t *testing.T) {
	plan := &Bound{Args: []model.Datum{int64(7)}, Plan: &Filter{
		Pred: Cmp{Op: EQ, L: Col(0), R: Param(0)},
		Input: ProjectCols(&HashJoin{
			Left: &IndexJoin{Left: &Values{Rows: []model.Tuple{{int64(1)}}}, Table: "E", Width: 2, Cols: []int{0},
				Keys: []Expr{Param(0)}, Path: AccessPath{Kind: AccessPK, Probe: []int{0}}},
			Right: &HashJoin{
				Left:  &Scan{Table: "L", Width: 2},
				Right: &IndexProbe{Table: "R", Index: IndexOn([]int{0}), Vals: []model.Datum{Param(0)}, Width: 2},
			},
			LeftKeys:  []int{0},
			RightKeys: []int{0},
		}, 0),
	}}
	out := Explain(plan)
	for _, want := range []string{"Filter(($0 = 7))", "Project($0)", "HashJoin(inner, left=[0] right=[0])", "IndexJoin(E via pk cols=[0] keys=[7])",
		"Values(1 rows)", "HashJoin(inner, left=[] right=[])", "Scan(L)", "IndexProbe(R cols=[0])"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q in:\n%s", want, out)
		}
	}
}

func TestExprStrings(t *testing.T) {
	e := And{
		L: Or{L: Cmp{Op: NE, L: Col(0), R: Lit{Val: int64(1)}}, R: IsNull{E: Col(1)}},
		R: Not{E: Cmp{Op: LE, L: Col(2), R: Lit{Val: "x"}}},
	}
	s := e.String()
	for _, want := range []string{"<>", "IS NULL", "NOT", "<=", "AND", "OR", "$0", "$1", "$2"} {
		if !strings.Contains(s, want) {
			t.Errorf("expr string %q missing %q", s, want)
		}
	}
	for op, want := range map[CmpOp]string{EQ: "=", NE: "<>", LT: "<", LE: "<=", GT: ">", GE: ">="} {
		if op.String() != want {
			t.Errorf("op %d = %q", int(op), op.String())
		}
	}
}

func TestJoinKeyArityMismatch(t *testing.T) {
	db := joinFixture(t)
	j := &HashJoin{
		Left:      &Scan{Table: "L", Width: 2},
		Right:     &Scan{Table: "R", Width: 2},
		LeftKeys:  []int{0},
		RightKeys: []int{0, 1},
	}
	if _, err := collect(j, db); err == nil {
		t.Error("key arity mismatch should error")
	}
}

func TestCrossJoinWithEmptyKeys(t *testing.T) {
	db := joinFixture(t)
	j := &HashJoin{
		Left:  &Scan{Table: "L", Width: 2},
		Right: &Scan{Table: "R", Width: 2},
	}
	rows := runPlan(t, db, j)
	if len(rows) != 3*4 {
		t.Errorf("cross join = %d rows, want 12", len(rows))
	}
}

// openCounting is a plan that counts how often it is run.
type openCounting struct {
	Plan
	opens *int
}

func (o openCounting) run(db *Database, args []model.Datum, yield func(model.Tuple) bool) error {
	*o.opens++
	return o.Plan.run(db, args, yield)
}

func TestHashJoinStreamsProbeSide(t *testing.T) {
	// L(id, lv) holds 1, 2, NULL; R(id, rv) holds 2, 2, 3, NULL. Only
	// L's second row joins, with R's first two.
	db := joinFixture(t)
	opens, built, probed := 0, 0, 0
	join := func(rightKeys []int) *HashJoin {
		return &HashJoin{
			Left:      countingPlan(&Scan{Table: "L", Width: 2}, &probed),
			Right:     openCounting{Plan: countingPlan(&Scan{Table: "R", Width: 2}, &built), opens: &opens},
			LeftKeys:  []int{0},
			RightKeys: rightKeys,
		}
	}
	j := join([]int{0})
	if opens != 0 {
		t.Fatalf("build side opened %d times before the run", opens)
	}
	n := 0
	if err := Each(j, db, func(row model.Tuple) bool {
		want := []string{"r2", "r2b"}[n]
		if row[1] != "l2" || row[3] != want {
			t.Errorf("row %d = %v, want l2 joined with %s", n, row, want)
		}
		if opens != 1 || built != 4 {
			t.Errorf("at row %d the build side was opened %d times and pulled %d rows, want 1 and 4", n, opens, built)
		}
		if probed != 2 {
			t.Errorf("at row %d the join pulled %d probe rows, want 2", n, probed)
		}
		n++
		return true
	}); err != nil || n != 2 {
		t.Fatalf("join: %d rows, err %v; want 2, nil", n, err)
	}
	if opens != 1 || built != 4 || probed != 3 {
		t.Errorf("drained join: %d build opens, %d build rows, %d probe rows; want 1, 4, 3", opens, built, probed)
	}
	// Stopping at the first row reads no further probe row.
	opens, built, probed = 0, 0, 0
	if err := Each(j, db, func(model.Tuple) bool { return false }); err != nil {
		t.Fatal(err)
	}
	if opens != 1 || built != 4 || probed != 2 {
		t.Errorf("join stopped at its first row: %d build opens, %d build rows, %d probe rows; want 1, 4, 2", opens, built, probed)
	}

	// A key-arity mismatch fails the run before the build side opens.
	opens = 0
	if _, err := collect(join([]int{0, 1}), db); err == nil || !strings.Contains(err.Error(), "arity mismatch") {
		t.Errorf("key arity mismatch streamed with err %v", err)
	}
	if opens != 0 {
		t.Errorf("a join with mismatched keys opened its build side %d times", opens)
	}
}
