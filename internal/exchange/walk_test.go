package exchange_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/exchange"
	"repro/internal/model"
)

// The deletion walk's edge cases, each pinned against the re-exchange
// oracle: after every deletion the maintained system must hold exactly
// the tables and provenance rows of a from-scratch exchange over the
// surviving base data, its report must count what storage lost, and
// its visited counts must be the affected subgraph's.

// walkStep deletes one base tuple and names the affected subgraph's
// size: tuples reached from the frontier, and derivations producing
// them.
type walkStep struct {
	rel            string
	key            []model.Datum
	tuples, derivs int
}

type walkCase struct {
	name string
	// rels are relation specs "name:key columns:other columns", every
	// column of type int unless its name says otherwise (s… string,
	// f… bool).
	rels     []string
	mappings func() []*model.Mapping
	base     map[string][]model.Tuple
	// tamper, when set, edits the maintained system's storage behind
	// exchange's back before the first step.
	tamper  func(t *testing.T, sys *exchange.System)
	steps   []walkStep
	layouts []bool // MaterializeAll values to run
}

func walkCases() []walkCase {
	v, c := model.V, model.C
	i := func(x int64) model.Datum { return x }
	both := []bool{false, true}
	return []walkCase{{
		// T(1,1)'s derivation names E(1) twice: once E(1) is re-derived
		// through M(1), the derivation's pending count must fall by
		// two, or T(1,1) is lost.
		name: "body-names-tuple-twice",
		rels: []string{"L:x:", "M:x:", "E:x:", "T:x,y:"},
		mappings: func() []*model.Mapping {
			return []*model.Mapping{
				model.NewMapping("mL", model.NewAtom("E", v("x")), model.NewAtom("L", v("x"))),
				model.NewMapping("mM", model.NewAtom("E", v("x")), model.NewAtom("M", v("x"))),
				model.NewMapping("mT", model.NewAtom("T", v("x"), v("y")), model.NewAtom("E", v("x")), model.NewAtom("E", v("y"))),
			}
		},
		base: map[string][]model.Tuple{"L": {{i(1)}, {i(2)}}, "M": {{i(1)}}},
		steps: []walkStep{
			// L(1), E(1), T(1,1), T(1,2), T(2,1); mL(1), mM(1) and three mT.
			{"L", []model.Datum{i(1)}, 5, 5},
			// M(1), E(1) and the same T tuples; mM(1) and three mT.
			{"M", []model.Datum{i(1)}, 5, 4},
		},
		layouts: both,
	}, {
		// O's key is A's non-key name column: a head probe of the
		// virtual mapping reads A on that column and must keep only the
		// rows matching the body atom (the constant, the repeated
		// variable of Q :- B).
		name: "virtual-head-key-from-non-key-column",
		rels: []string{"A:id:sname,flive", "O:sname:", "B:x,y:", "Q:x:"},
		mappings: func() []*model.Mapping {
			return []*model.Mapping{
				model.NewMapping("mO", model.NewAtom("O", v("n")), model.NewAtom("A", v("i"), v("n"), c(true))),
				model.NewMapping("mQ", model.NewAtom("Q", v("x")), model.NewAtom("B", v("x"), v("x"))),
			}
		},
		base: map[string][]model.Tuple{
			"A": {{i(1), "a", true}, {i(2), "a", false}, {i(3), "b", true}, {i(4), "b", true}},
			"B": {{i(1), i(1)}, {i(1), i(2)}},
		},
		steps: []walkStep{
			{"A", []model.Datum{i(1)}, 2, 1}, // O(a) goes: A(2) is no derivation
			{"A", []model.Datum{i(3)}, 2, 2}, // O(b) stays through A(4)
			{"B", []model.Datum{i(1), i(1)}, 2, 1},
		},
		layouts: both,
	}, {
		// Both heads of one derivation can name one tuple: T(1) finds
		// E(1,1)'s derivation through each head but counts it once.
		name: "two-head-mapping",
		rels: []string{"E:x,y:", "T:x:"},
		mappings: func() []*model.Mapping {
			return []*model.Mapping{model.NewMultiHeadMapping("mTT",
				[]model.Atom{model.NewAtom("T", v("x")), model.NewAtom("T", v("y"))},
				[]model.Atom{model.NewAtom("E", v("x"), v("y"))})}
		},
		base: map[string][]model.Tuple{"E": {{i(1), i(1)}, {i(1), i(2)}}},
		steps: []walkStep{
			{"E", []model.Datum{i(1), i(2)}, 3, 2},
			{"E", []model.Datum{i(1), i(1)}, 2, 1},
		},
		layouts: both,
	}, {
		// The body atom N(i, false) fixes a key position: N(1,true)
		// feeds mC nothing, only mD.
		name: "constant-in-body-key",
		rels: []string{"A:i:", "N:i,fcanon:", "C:i:", "D:i:"},
		mappings: func() []*model.Mapping {
			return []*model.Mapping{
				model.NewMapping("mC", model.NewAtom("C", v("i")), model.NewAtom("A", v("i")), model.NewAtom("N", v("i"), c(false))),
				model.NewMapping("mD", model.NewAtom("D", v("i")), model.NewAtom("N", v("i"), c(true))),
			}
		},
		base: map[string][]model.Tuple{"A": {{i(1)}}, "N": {{i(1), false}, {i(1), true}}},
		steps: []walkStep{
			{"N", []model.Datum{i(1), true}, 2, 1},  // N(1,true), D(1)
			{"N", []model.Datum{i(1), false}, 2, 1}, // N(1,false), C(1)
		},
		layouts: both,
	}, {
		// B(1) is removed behind exchange's back, so P_mB and P_mC keep
		// rows naming a tuple the store does not hold: the walk still
		// reaches C(1) through B(1)'s key. Only materialized provenance
		// has rows of its own; a virtual mapping's rows are its stored
		// source's.
		name: "provenance-names-unstored-tuple",
		rels: []string{"A:x:", "B:x:", "C:x:"},
		mappings: func() []*model.Mapping {
			return []*model.Mapping{
				model.NewMapping("mB", model.NewAtom("B", v("x")), model.NewAtom("A", v("x"))),
				model.NewMapping("mC", model.NewAtom("C", v("x")), model.NewAtom("B", v("x"))),
			}
		},
		base: map[string][]model.Tuple{"A": {{i(1)}, {i(2)}}},
		tamper: func(t *testing.T, sys *exchange.System) {
			if ok, err := sys.DB.MustTable("B").Delete([]model.Datum{i(1)}); err != nil || !ok {
				t.Fatalf("removing B(1): %v %v", ok, err)
			}
		},
		steps:   []walkStep{{"A", []model.Datum{i(1)}, 3, 2}},
		layouts: []bool{true},
	}, {
		// P(x) and Q(x) derive each other: the cycle of 1 loses its
		// only external support, the cycle of 2 keeps Q(2)'s local
		// contribution.
		name: "cycle-loses-external-support",
		rels: []string{"E:x:", "P:x:", "Q:x:"},
		mappings: func() []*model.Mapping {
			return []*model.Mapping{
				model.NewMapping("mEP", model.NewAtom("P", v("x")), model.NewAtom("E", v("x"))),
				model.NewMapping("mPQ", model.NewAtom("Q", v("x")), model.NewAtom("P", v("x"))),
				model.NewMapping("mQP", model.NewAtom("P", v("x")), model.NewAtom("Q", v("x"))),
			}
		},
		base: map[string][]model.Tuple{"E": {{i(1)}, {i(2)}}, "Q": {{i(2)}}},
		steps: []walkStep{
			{"E", []model.Datum{i(1)}, 3, 3},
			{"E", []model.Datum{i(2)}, 3, 3},
		},
		layouts: both,
	}}
}

// build exchanges the case's base data, without the keys in gone, on
// a fresh system.
func (c walkCase) build(t *testing.T, materialize bool, gone map[string]bool) *exchange.System {
	t.Helper()
	schema := model.NewSchema()
	for _, spec := range c.rels {
		parts := strings.Split(spec, ":")
		keys := strings.Split(parts[1], ",")
		var cols []model.Column
		for _, name := range append(keys, strings.Split(parts[2], ",")...) {
			if name != "" {
				cols = append(cols, walkColumn(name))
			}
		}
		if err := schema.AddRelation(model.MustRelation(parts[0], cols, keys...)); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range c.mappings() {
		if err := schema.AddMapping(m); err != nil {
			t.Fatal(err)
		}
	}
	sys, err := exchange.NewSystem(schema, exchange.Options{MaterializeAll: materialize})
	if err != nil {
		t.Fatal(err)
	}
	for rel, rows := range c.base {
		r, _ := schema.Relation(rel)
		for _, row := range rows {
			if gone[rel+model.EncodeDatums(r.KeyOf(row))] {
				continue
			}
			if err := sys.InsertLocal(rel, row.Clone()); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return sys
}

func walkColumn(name string) model.Column {
	switch name[0] {
	case 's':
		return model.Column{Name: name, Type: model.TypeString}
	case 'f':
		return model.Column{Name: name, Type: model.TypeBool}
	}
	return model.Column{Name: name, Type: model.TypeInt}
}

func TestDeleteWalkEdgeCases(t *testing.T) {
	for _, c := range walkCases() {
		for _, materialize := range c.layouts {
			t.Run(fmt.Sprintf("%s/materialize=%v", c.name, materialize), func(t *testing.T) {
				sys := c.build(t, materialize, nil)
				if c.tamper != nil {
					c.tamper(t, sys)
				}
				gone := map[string]bool{}
				for si, st := range c.steps {
					tuplesBefore, derivsBefore := publicRowCount(sys), derivationCount(t, sys)
					rep, err := sys.DeleteLocal(st.rel, st.key)
					if err != nil {
						t.Fatalf("step %d: %v", si, err)
					}
					if rep.LocalDeleted != 1 {
						t.Fatalf("step %d: LocalDeleted = %d, want 1", si, rep.LocalDeleted)
					}
					if rep.TuplesVisited != st.tuples || rep.DerivationsVisited != st.derivs {
						t.Errorf("step %d: visited %d tuples / %d derivations, want %d / %d",
							si, rep.TuplesVisited, rep.DerivationsVisited, st.tuples, st.derivs)
					}
					if lost := tuplesBefore - publicRowCount(sys); lost != rep.TuplesDeleted || lost != len(rep.DeletedTuples) {
						t.Errorf("step %d: storage lost %d public rows, report %+v", si, lost, rep)
					}
					if lost := derivsBefore - derivationCount(t, sys); lost != rep.DerivationsDeleted || lost != len(rep.DeletedDerivations) {
						t.Errorf("step %d: storage lost %d derivations, report %+v", si, lost, rep)
					}
					gone[st.rel+model.EncodeDatums(st.key)] = true
					if got, want := signature(t, sys), signature(t, c.build(t, materialize, gone)); got != want {
						t.Fatalf("step %d: maintained != re-exchange oracle\nmaintained:\n%s\noracle:\n%s", si, got, want)
					}
				}
			})
		}
	}
}
