package proql

import (
	"strings"
	"testing"

	"repro/internal/exchange"
	"repro/internal/model"
	"repro/internal/relstore"
)

// TestSemiJoinOnlyThroughKeys plans T(d) :- D(d), E(id, d) over D(dept)
// keyed on dept and E(id, dept) keyed on id with an index on dept. E is
// probed through the index, so its rows keep bag semantics — two
// employees in one department are two derivations — even though E binds
// nothing live; with id live it is carried. Unfolded rules never reach
// an index probe that binds nothing live (a provenance relation holds
// every body atom's key), so this rule is written by hand.
func TestSemiJoinOnlyThroughKeys(t *testing.T) {
	intCol := func(n string) model.Column { return model.Column{Name: n, Type: model.TypeInt} }
	db := relstore.NewDatabase()
	d, _ := db.CreateTable(&relstore.TableSchema{Name: "D", Columns: []model.Column{intCol("dept")}, Key: []int{0}})
	e, _ := db.CreateTable(&relstore.TableSchema{Name: "E", Columns: []model.Column{intCol("id"), intCol("dept")}, Key: []int{0}})
	e.CreateIndex([]int{1})
	for dept := int64(0); dept < 3; dept++ {
		d.Insert(model.Tuple{dept})
	}
	for id, dept := range []int64{0, 0, 1, 0, 7} {
		e.Insert(model.Tuple{int64(id), dept})
	}
	sys := &exchange.System{Schema: model.NewSchema(), DB: db}
	v := model.V
	for _, tc := range []struct {
		prov []model.Term
		plan string
	}{
		{nil, "Project($0)\n  IndexJoin(E via index cols=[1] keys=[$0])\n    Scan(D)\n"},
		{[]model.Term{v("id")}, "Project($0, $1)\n  IndexJoin(E via index cols=[1] keys=[$0])\n    Scan(D)\n"},
	} {
		rule := &ConjRule{
			Anchor: model.NewAtom("T", v("d")),
			Body:   []model.Atom{model.NewAtom("D", v("d")), model.NewAtom("E", v("id"), v("d"))},
			Prov:   []ProvRef{{Mapping: "m", Terms: tc.prov}},
		}
		rp, err := buildRulePlan(sys, rule, nil, "x", pruneSpec{})
		if err != nil {
			t.Fatal(err)
		}
		if got := relstore.Explain(rp.plan); got != tc.plan {
			t.Errorf("prov %v: plan\n%swant\n%s", tc.prov, got, tc.plan)
		}
		var rows []model.Tuple
		if err := relstore.Each(rp.plan, db, func(row model.Tuple) bool {
			rows = append(rows, row)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(rows) != 4 { // three employees in department 0, one in 1
			t.Errorf("prov %v: %d rows, want 4: %v", tc.prov, len(rows), rows)
		}
		if strings.Contains(relstore.Explain(rp.plan), "SemiJoin") {
			t.Errorf("prov %v: an index probe became a semi-join", tc.prov)
		}
	}
}
