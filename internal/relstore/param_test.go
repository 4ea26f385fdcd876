package relstore

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/model"
)

// TestBoundMatchesLiterals builds each plan twice, once with parameter
// slots and once with the values written in, and demands that the
// template bound to the values streams and explains as the literal
// plan does — for parameters in a key lookup, an index probe, a
// residual filter, index-join keys, a hash join's inputs and a filter
// under a projection — while the template itself stays unbound.
func TestBoundMatchesLiterals(t *testing.T) {
	db := accessFixture(t)
	e, g := db.MustTable("E"), db.MustTable("G")
	width := len(e.Schema.Columns)
	shapes := map[string]func(a, b model.Datum) Plan{
		"pk+residual": func(a, b model.Datum) Plan {
			return Select(e, []int{0, 1}, []model.Datum{a, b})
		},
		"index probe": func(a, b model.Datum) Plan {
			return Select(e, []int{2, 1}, []model.Datum{a, b})
		},
		"index join": func(a, b model.Datum) Plan {
			left := &Filter{Input: &Scan{Table: "G", Width: 2}, Pred: Cmp{Op: GE, L: Col(1), R: ValueExpr(b)}}
			return &IndexJoin{Left: left, Table: "E", Width: width, Cols: []int{1, 2},
				Keys: []Expr{Col(0), ValueExpr(a)}, Path: e.ChooseAccess([]int{1, 2})}
		},
		"hash join": func(a, b model.Datum) Plan {
			return &HashJoin{Left: Select(g, []int{1}, []model.Datum{b}), Right: Select(e, []int{2}, []model.Datum{a}),
				LeftKeys: []int{0}, RightKeys: []int{1}}
		},
		"project": func(a, b model.Datum) Plan {
			return ProjectCols(&Filter{Input: &Scan{Table: "E", Width: width}, Pred: Cmp{Op: EQ, L: Col(2), R: ValueExpr(a)}}, 3, 0)
		},
	}
	argSets := [][]model.Datum{
		{"ber", int64(1)}, {"ams", int64(10)}, {"cph", int64(3)}, {"nowhere", int64(2)}, {"ams", nil},
	}
	for name, mk := range shapes {
		tpl := mk(Param(0), Param(1))
		before := Explain(tpl)
		if _, err := collect(tpl, db); err == nil || !strings.Contains(err.Error(), "not bound") {
			t.Errorf("%s: unbound template streamed with err %v", name, err)
		}
		for _, args := range argSets {
			if name == "pk+residual" {
				args = []model.Datum{int64(len(args[0].(string))), args[1]}
			}
			want := mk(args[0], args[1])
			b := &Bound{Plan: tpl, Args: args}
			if got, w := Explain(b), Explain(want); got != w {
				t.Errorf("%s %v: bound explains as\n%swant\n%s", name, args, got, w)
			}
			wantRows := runPlan(t, db, want)
			streamed, err := collect(b, db)
			if err != nil {
				t.Fatalf("%s %v: %v", name, args, err)
			}
			if !reflect.DeepEqual(sortedRows(streamed), sortedRows(wantRows)) {
				t.Errorf("%s %v: streamed %v, want %v", name, args, streamed, wantRows)
			}
		}
		if after := Explain(tpl); after != before {
			t.Errorf("%s: binding changed the template:\n%s\nwas\n%s", name, after, before)
		}
	}
}
