package datalog

import (
	"testing"

	"repro/internal/model"
	"repro/internal/relstore"
)

func mkTable(t *testing.T, db *relstore.Database, name string, arity int, keyAll bool) *relstore.Table {
	t.Helper()
	cols := make([]model.Column, arity)
	for i := range cols {
		cols[i] = model.Column{Name: string(rune('a' + i)), Type: model.TypeInt}
	}
	var key []int
	if keyAll {
		key = make([]int, arity)
		for i := range key {
			key[i] = i
		}
	} else {
		key = []int{0}
	}
	tbl, err := db.CreateTable(&relstore.TableSchema{Name: name, Columns: cols, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// engineRunner runs a rule set on one of the two engines with a
// legacy-style binding hook, so every evaluation scenario below
// exercises both the interpreter and the compiled executor.
type engineRunner struct {
	name string
	run  func(t *testing.T, db *relstore.Database, rules []Rule, hook func(*Rule, Binding)) (iterations, derivations int, err error)
}

func engineRunners() []engineRunner {
	return []engineRunner{
		{name: "legacy", run: func(t *testing.T, db *relstore.Database, rules []Rule, hook func(*Rule, Binding)) (int, int, error) {
			t.Helper()
			e := NewEngineLegacy(db)
			if hook != nil {
				e.Hook = hook
			}
			err := e.Run(rules)
			return e.Iterations, e.Derivations, err
		}},
		{name: "compiled", run: func(t *testing.T, db *relstore.Database, rules []Rule, hook func(*Rule, Binding)) (int, int, error) {
			t.Helper()
			e := NewEngine(db)
			if hook != nil {
				e.Hook = func(r *Rule, vars []string, slots []model.Datum) {
					hook(r, BindingFromSlots(vars, slots))
				}
			}
			err := e.Run(rules)
			return e.Iterations, e.Derivations, err
		}},
	}
}

func TestEngineTransitiveClosure(t *testing.T) {
	for _, eng := range engineRunners() {
		t.Run(eng.name, func(t *testing.T) {
			db := relstore.NewDatabase()
			edge := mkTable(t, db, "edge", 2, true)
			mkTable(t, db, "path", 2, true)
			for _, e := range [][2]int64{{1, 2}, {2, 3}, {3, 4}} {
				edge.Insert(model.Tuple{e[0], e[1]})
			}
			rules := []Rule{
				NewRule("base", model.NewAtom("path", model.V("x"), model.V("y")),
					model.NewAtom("edge", model.V("x"), model.V("y"))),
				NewRule("step", model.NewAtom("path", model.V("x"), model.V("z")),
					model.NewAtom("edge", model.V("x"), model.V("y")),
					model.NewAtom("path", model.V("y"), model.V("z"))),
			}
			iters, _, err := eng.run(t, db, rules, nil)
			if err != nil {
				t.Fatal(err)
			}
			path := db.MustTable("path")
			if path.Len() != 6 {
				t.Fatalf("path has %d rows, want 6", path.Len())
			}
			if _, ok := path.LookupKey([]model.Datum{int64(1), int64(4)}); !ok {
				t.Error("missing 1->4")
			}
			if iters < 2 {
				t.Errorf("expected multiple iterations, got %d", iters)
			}
		})
	}
}

func TestEngineDerivationHookSeesAllDerivations(t *testing.T) {
	// r(x) derivable two ways: from s(x) and from t(x); the hook must
	// see both derivations even though the fact is inserted once.
	for _, eng := range engineRunners() {
		t.Run(eng.name, func(t *testing.T) {
			db := relstore.NewDatabase()
			s := mkTable(t, db, "s", 1, true)
			u := mkTable(t, db, "t", 1, true)
			mkTable(t, db, "r", 1, true)
			s.Insert(model.Tuple{int64(7)})
			u.Insert(model.Tuple{int64(7)})
			rules := []Rule{
				NewRule("fromS", model.NewAtom("r", model.V("x")), model.NewAtom("s", model.V("x"))),
				NewRule("fromT", model.NewAtom("r", model.V("x")), model.NewAtom("t", model.V("x"))),
			}
			seen := map[string]int{}
			if _, _, err := eng.run(t, db, rules, func(r *Rule, b Binding) {
				seen[r.ID]++
			}); err != nil {
				t.Fatal(err)
			}
			if seen["fromS"] != 1 || seen["fromT"] != 1 {
				t.Errorf("hook calls = %v, want one per rule", seen)
			}
			if db.MustTable("r").Len() != 1 {
				t.Errorf("r has %d rows", db.MustTable("r").Len())
			}
		})
	}
}

func TestEngineJoinWithConstantsAndWildcards(t *testing.T) {
	for _, eng := range engineRunners() {
		t.Run(eng.name, func(t *testing.T) {
			db := relstore.NewDatabase()
			a := mkTable(t, db, "A", 3, true)
			c := mkTable(t, db, "C", 2, true)
			mkTable(t, db, "O", 2, true)
			// A(i, s, h), C(i, n) as in the running example.
			a.Insert(model.Tuple{int64(1), int64(100), int64(7)})
			a.Insert(model.Tuple{int64(2), int64(101), int64(5)})
			c.Insert(model.Tuple{int64(2), int64(200)})
			// O(n, h) :- A(i, _, h), C(i, n)
			r := NewRule("m5", model.NewAtom("O", model.V("n"), model.V("h")),
				model.NewAtom("A", model.V("i"), model.V("_"), model.V("h")),
				model.NewAtom("C", model.V("i"), model.V("n")))
			if _, _, err := eng.run(t, db, []Rule{r}, nil); err != nil {
				t.Fatal(err)
			}
			o := db.MustTable("O")
			if o.Len() != 1 {
				t.Fatalf("O has %d rows", o.Len())
			}
			row, ok := o.LookupKey([]model.Datum{int64(200), int64(5)})
			if !ok || row[1] != int64(5) {
				t.Errorf("O row = %v %v", row, ok)
			}
		})
	}
}

func TestEngineConstantInBody(t *testing.T) {
	for _, eng := range engineRunners() {
		t.Run(eng.name, func(t *testing.T) {
			db := relstore.NewDatabase()
			n := mkTable(t, db, "N", 2, true)
			mkTable(t, db, "Out", 1, true)
			n.Insert(model.Tuple{int64(1), int64(0)})
			n.Insert(model.Tuple{int64(2), int64(1)})
			// Out(x) :- N(x, 1)
			r := NewRule("k", model.NewAtom("Out", model.V("x")),
				model.NewAtom("N", model.V("x"), model.C(int64(1))))
			if _, _, err := eng.run(t, db, []Rule{r}, nil); err != nil {
				t.Fatal(err)
			}
			if db.MustTable("Out").Len() != 1 {
				t.Errorf("Out = %d rows", db.MustTable("Out").Len())
			}
			if _, ok := db.MustTable("Out").LookupKey([]model.Datum{int64(2)}); !ok {
				t.Error("missing Out(2)")
			}
		})
	}
}

func TestEngineMultiHeadRule(t *testing.T) {
	for _, eng := range engineRunners() {
		t.Run(eng.name, func(t *testing.T) {
			db := relstore.NewDatabase()
			src := mkTable(t, db, "S", 2, true)
			mkTable(t, db, "H1", 1, true)
			mkTable(t, db, "H2", 1, true)
			src.Insert(model.Tuple{int64(1), int64(2)})
			r := Rule{ID: "mh",
				Heads: []model.Atom{
					model.NewAtom("H1", model.V("x")),
					model.NewAtom("H2", model.V("y")),
				},
				Body: []model.Atom{model.NewAtom("S", model.V("x"), model.V("y"))},
			}
			hooks := 0
			if _, _, err := eng.run(t, db, []Rule{r}, func(*Rule, Binding) { hooks++ }); err != nil {
				t.Fatal(err)
			}
			if db.MustTable("H1").Len() != 1 || db.MustTable("H2").Len() != 1 {
				t.Error("multi-head insertion failed")
			}
			if hooks != 1 {
				t.Errorf("one derivation expected, hook saw %d", hooks)
			}
		})
	}
}

func TestEngineLargeSelfJoin(t *testing.T) {
	// Large body tables exercise the index paths of both engines: the
	// legacy engine lazily creates table secondary indexes, the
	// compiled engine probes its own journal indexes.
	for _, eng := range engineRunners() {
		t.Run(eng.name, func(t *testing.T) {
			db := relstore.NewDatabase()
			edge := mkTable(t, db, "edge", 2, true)
			mkTable(t, db, "out", 2, true)
			n := int64(200) // well above the legacy indexThreshold
			for i := int64(0); i < n; i++ {
				edge.Insert(model.Tuple{i, i + 1})
			}
			// out(x, z) :- edge(x, y), edge(y, z)
			r := NewRule("two", model.NewAtom("out", model.V("x"), model.V("z")),
				model.NewAtom("edge", model.V("x"), model.V("y")),
				model.NewAtom("edge", model.V("y"), model.V("z")))
			if _, _, err := eng.run(t, db, []Rule{r}, nil); err != nil {
				t.Fatal(err)
			}
			if got := db.MustTable("out").Len(); got != int(n-1) {
				t.Errorf("out has %d rows, want %d", got, n-1)
			}
			// The legacy probe pattern (edge joined on column 0) must
			// have built a table index.
			if eng.name == "legacy" && !edge.HasIndex([]int{0}) {
				t.Error("expected lazily created index on edge[0]")
			}
		})
	}
}

func TestEngineStats(t *testing.T) {
	for _, eng := range engineRunners() {
		t.Run(eng.name, func(t *testing.T) {
			db := relstore.NewDatabase()
			s := mkTable(t, db, "s", 1, true)
			mkTable(t, db, "r", 1, true)
			s.Insert(model.Tuple{int64(1)})
			s.Insert(model.Tuple{int64(2)})
			iters, derivs, err := eng.run(t, db, []Rule{
				NewRule("copy", model.NewAtom("r", model.V("x")), model.NewAtom("s", model.V("x"))),
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if derivs != 2 {
				t.Errorf("Derivations = %d, want 2", derivs)
			}
			if iters < 1 {
				t.Errorf("Iterations = %d", iters)
			}
		})
	}
}

func TestEngineMissingTableErrors(t *testing.T) {
	for _, eng := range engineRunners() {
		t.Run(eng.name, func(t *testing.T) {
			db := relstore.NewDatabase()
			r := NewRule("x", model.NewAtom("H", model.V("v")), model.NewAtom("B", model.V("v")))
			if _, _, err := eng.run(t, db, []Rule{r}, nil); err == nil {
				t.Error("missing tables should error")
			}
		})
	}
}

func TestUnify(t *testing.T) {
	// O(n, h, true) unifies with O(x, 5, c) binding x↦n? both vars...
	a := model.NewAtom("O", model.V("n"), model.V("h"), model.C(true))
	b := model.NewAtom("O", model.V("x"), model.C(int64(5)), model.V("c"))
	binding, ok := Unify(a, b)
	if !ok {
		t.Fatal("should unify")
	}
	// h must be bound to 5, c to true; n/x linked.
	if bt, okh := binding["h"]; !okh || !bt.IsConst || bt.Const != int64(5) {
		t.Errorf("h binding = %v", binding["h"])
	}
	if ct, okc := binding["c"]; !okc || !ct.IsConst || ct.Const != true {
		t.Errorf("c binding = %v", binding["c"])
	}
	// Mismatched constants fail.
	x := model.NewAtom("R", model.C(int64(1)))
	y := model.NewAtom("R", model.C(int64(2)))
	if _, ok := Unify(x, y); ok {
		t.Error("distinct constants must not unify")
	}
	// Different predicates fail.
	if _, ok := Unify(model.NewAtom("R", model.V("v")), model.NewAtom("S", model.V("v"))); ok {
		t.Error("different predicates must not unify")
	}
	// Wildcards unify freely.
	if _, ok := Unify(model.NewAtom("R", model.V("_")), model.NewAtom("R", model.C(int64(1)))); !ok {
		t.Error("wildcard should unify with constant")
	}
}

func TestUnifyChainedVars(t *testing.T) {
	// R(x, x) ~ R(y, 3) must bind x and y to 3.
	a := model.NewAtom("R", model.V("x"), model.V("x"))
	b := model.NewAtom("R", model.V("y"), model.C(int64(3)))
	binding, ok := Unify(a, b)
	if !ok {
		t.Fatal("should unify")
	}
	resolve := func(v string) model.Term {
		t1, ok := binding[v]
		for ok && !t1.IsConst {
			t1, ok = binding[t1.Var]
		}
		return t1
	}
	if rx := resolve("x"); !rx.IsConst || rx.Const != int64(3) {
		t.Errorf("x resolves to %v", rx)
	}
}

func TestFindHomomorphism(t *testing.T) {
	// Pattern: P5(i,n), P1(i,n)   Target: P5(a,b), Al(a,_,h), P1(a,b), A(a,s,_), N(a,b,false)
	p := []model.Atom{
		model.NewAtom("P5", model.V("i"), model.V("n")),
		model.NewAtom("P1", model.V("i"), model.V("n")),
	}
	r := []model.Atom{
		model.NewAtom("P5", model.V("a"), model.V("b")),
		model.NewAtom("Al", model.V("a"), model.V("_"), model.V("h")),
		model.NewAtom("P1", model.V("a"), model.V("b")),
		model.NewAtom("A", model.V("a"), model.V("s"), model.V("_")),
		model.NewAtom("N", model.V("a"), model.V("b"), model.C(false)),
	}
	mapping, matched, ok := FindHomomorphism(p, r)
	if !ok {
		t.Fatal("homomorphism should exist")
	}
	if matched[0] != 0 || matched[1] != 2 {
		t.Errorf("matched = %v", matched)
	}
	if mi := mapping["i"]; mi.IsConst || mi.Var != "a" {
		t.Errorf("i ↦ %v", mi)
	}
	// Inconsistent variable use must fail: P5(i,n), P1(n,i) vs target
	// where both atoms use (a,b).
	p2 := []model.Atom{
		model.NewAtom("P5", model.V("i"), model.V("n")),
		model.NewAtom("P1", model.V("n"), model.V("i")),
	}
	if _, _, ok := FindHomomorphism(p2, r); ok {
		t.Error("inconsistent homomorphism should fail")
	}
	// Distinctness: pattern with two identical atoms needs two distinct
	// target atoms.
	p3 := []model.Atom{
		model.NewAtom("P5", model.V("i"), model.V("n")),
		model.NewAtom("P5", model.V("i"), model.V("n")),
	}
	if _, _, ok := FindHomomorphism(p3, r); ok {
		t.Error("cannot map two pattern atoms onto one target atom")
	}
}

func TestRuleVarsAndString(t *testing.T) {
	r := NewRule("m", model.NewAtom("H", model.V("x")),
		model.NewAtom("B", model.V("x"), model.V("y"), model.C(int64(1))))
	vars := r.Vars()
	if len(vars) != 2 || vars[0] != "x" || vars[1] != "y" {
		t.Errorf("Vars = %v", vars)
	}
	if r.String() == "" {
		t.Error("String empty")
	}
}
