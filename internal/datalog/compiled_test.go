package datalog

import (
	"sort"
	"testing"

	"repro/internal/model"
	"repro/internal/relstore"
)

// firingKey canonicalizes one (rule, binding) firing for multiset
// comparison.
func firingKey(r *Rule, b Binding) string {
	vars := make([]string, 0, len(b))
	for v := range b {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	key := r.ID
	for _, v := range vars {
		key += "|" + v + "=" + model.EncodeDatums([]model.Datum{b[v]})
	}
	return key
}

// tcProgram is the 2-rule transitive-closure program over a 3-edge
// chain used by the duplicate-derivation regression test. Its distinct
// derivations at fixpoint are exactly six: the three base-rule firings
// plus step firings edge(1,2)⋈path(2,3), edge(2,3)⋈path(3,4), and
// edge(1,2)⋈path(2,4).
func tcProgram(t *testing.T) (*relstore.Database, []Rule) {
	t.Helper()
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
	return db, rules
}

const tcDistinctDerivations = 6

// TestCompiledEngineCountsEachDerivationOnce is the regression test
// for the legacy engine's coarse-Δ duplicate-derivation bug: on a
// recursive 2-rule program the interpreter re-enumerates a derivation
// once per delta position holding one of its facts (and once more when
// a fact inserted earlier in the same pass is seen again as Δ), so
// Derivations over-counts and the hook re-fires. The compiled engine's
// Δ-partitioned programs must enumerate every distinct derivation
// exactly once.
func TestCompiledEngineCountsEachDerivationOnce(t *testing.T) {
	db, rules := tcProgram(t)
	e := NewEngine(db)
	firings := map[string]int{}
	e.Hook = func(r *Rule, vars []string, slots []model.Datum) {
		firings[firingKey(r, BindingFromSlots(vars, slots))]++
	}
	if err := e.Run(rules); err != nil {
		t.Fatal(err)
	}
	if e.Derivations != tcDistinctDerivations {
		t.Errorf("compiled Derivations = %d, want %d", e.Derivations, tcDistinctDerivations)
	}
	if len(firings) != tcDistinctDerivations {
		t.Errorf("distinct firings = %d, want %d", len(firings), tcDistinctDerivations)
	}
	for key, n := range firings {
		if n != 1 {
			t.Errorf("firing %s seen %d times, want 1", key, n)
		}
	}
	if got := db.MustTable("path").Len(); got != 6 {
		t.Errorf("path has %d rows, want 6", got)
	}
}

// TestLegacyEngineOverCountsDerivations documents the bug the compiled
// engine fixes: on the same program the interpreter fires the hook
// more than once for at least one derivation.
func TestLegacyEngineOverCountsDerivations(t *testing.T) {
	db, rules := tcProgram(t)
	e := NewEngineLegacy(db)
	firings := map[string]int{}
	e.Hook = func(r *Rule, b Binding) {
		firings[firingKey(r, b)]++
	}
	if err := e.Run(rules); err != nil {
		t.Fatal(err)
	}
	if len(firings) != tcDistinctDerivations {
		t.Errorf("legacy distinct firings = %d, want %d", len(firings), tcDistinctDerivations)
	}
	if e.Derivations <= tcDistinctDerivations {
		t.Errorf("legacy Derivations = %d; expected over-count > %d (has the coarse-Δ bug been fixed? then fold EngineLegacy into Engine)",
			e.Derivations, tcDistinctDerivations)
	}
}

// TestProgramReuseAcrossRuns compiles once and re-runs the program
// after the base data changes — the update-exchange reuse pattern.
func TestProgramReuseAcrossRuns(t *testing.T) {
	db, rules := tcProgram(t)
	prog, err := Compile(db, rules)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(db)
	if err := e.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	if got := db.MustTable("path").Len(); got != 6 {
		t.Fatalf("first run: path has %d rows, want 6", got)
	}
	// Extend the chain and re-run the same program.
	db.MustTable("edge").Insert(model.Tuple{int64(4), int64(5)})
	if err := e.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	if got := db.MustTable("path").Len(); got != 10 {
		t.Errorf("second run: path has %d rows, want 10", got)
	}
	if _, ok := db.MustTable("path").LookupKey([]model.Datum{int64(1), int64(5)}); !ok {
		t.Error("missing 1->5 after reuse run")
	}
}

// TestProgramVarSlots checks hook-side slot resolution and the
// compile-time validation errors.
func TestProgramVarSlots(t *testing.T) {
	db, rules := tcProgram(t)
	prog, err := Compile(db, rules)
	if err != nil {
		t.Fatal(err)
	}
	slots, err := prog.VarSlots("step", []string{"z", "x"})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(db)
	var got [][2]model.Datum
	e.Hook = func(r *Rule, _ []string, s []model.Datum) {
		if r.ID == "step" {
			got = append(got, [2]model.Datum{s[slots[0]], s[slots[1]]})
		}
	}
	if err := e.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("step firings = %d, want 3", len(got))
	}
	for _, pair := range got {
		// z/x of a step firing are the endpoints of the derived path
		// fact, which must be in the table.
		if _, ok := db.MustTable("path").LookupKey([]model.Datum{pair[1], pair[0]}); !ok {
			t.Errorf("step firing endpoints (%v,%v) not a path fact", pair[1], pair[0])
		}
	}
	if _, err := prog.VarSlots("step", []string{"nope"}); err == nil {
		t.Error("unknown variable should error")
	}
	if _, err := prog.VarSlots("ghost", nil); err == nil {
		t.Error("unknown rule should error")
	}
}

// TestCompileRejectsInvalidHeads covers the compile-time validations
// the legacy engine only hits at evaluation time.
func TestCompileRejectsInvalidHeads(t *testing.T) {
	db := relstore.NewDatabase()
	mkTable(t, db, "S", 1, true)
	mkTable(t, db, "H", 1, true)
	if _, err := Compile(db, []Rule{
		NewRule("unbound", model.NewAtom("H", model.V("y")), model.NewAtom("S", model.V("x"))),
	}); err == nil {
		t.Error("unbound head variable should fail to compile")
	}
	if _, err := Compile(db, []Rule{
		NewRule("wild", model.NewAtom("H", model.V("_")), model.NewAtom("S", model.V("x"))),
	}); err == nil {
		t.Error("head wildcard should fail to compile")
	}
}

// TestCompiledEngineRepeatedVarInAtom checks intra-atom repeated
// variables both for Δ seeds and join steps (the residual-check path).
func TestCompiledEngineRepeatedVarInAtom(t *testing.T) {
	for _, eng := range engineRunners() {
		t.Run(eng.name, func(t *testing.T) {
			db := relstore.NewDatabase()
			r2 := mkTable(t, db, "R", 2, true)
			s2 := mkTable(t, db, "S", 2, true)
			mkTable(t, db, "Out", 1, true)
			r2.Insert(model.Tuple{int64(1), int64(1)})
			r2.Insert(model.Tuple{int64(1), int64(2)})
			s2.Insert(model.Tuple{int64(3), int64(3)})
			s2.Insert(model.Tuple{int64(4), int64(5)})
			// Out(x) :- R(x, x), S(y, y)
			rule := NewRule("diag", model.NewAtom("Out", model.V("x")),
				model.NewAtom("R", model.V("x"), model.V("x")),
				model.NewAtom("S", model.V("y"), model.V("y")))
			if _, _, err := eng.run(t, db, []Rule{rule}, nil); err != nil {
				t.Fatal(err)
			}
			out := db.MustTable("Out")
			if out.Len() != 1 {
				t.Fatalf("Out has %d rows, want 1", out.Len())
			}
			if _, ok := out.LookupKey([]model.Datum{int64(1)}); !ok {
				t.Error("missing Out(1)")
			}
		})
	}
}

// TestCompiledEngineKeyedDedup exercises narrow primary keys: a head
// row whose key already exists is dropped, exactly as the legacy
// engine's table-set semantics drop it.
func TestCompiledEngineKeyedDedup(t *testing.T) {
	for _, eng := range engineRunners() {
		t.Run(eng.name, func(t *testing.T) {
			db := relstore.NewDatabase()
			src := mkTable(t, db, "Src", 2, false) // keyed on col 0 only
			mkTable(t, db, "Dst", 2, false)
			src.Insert(model.Tuple{int64(1), int64(10)})
			src.Insert(model.Tuple{int64(2), int64(10)})
			// Dst(y, x) :- Src(x, y): both source rows map to key 10.
			rule := NewRule("flip", model.NewAtom("Dst", model.V("y"), model.V("x")),
				model.NewAtom("Src", model.V("x"), model.V("y")))
			_, derivs, err := eng.run(t, db, []Rule{rule}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if derivs != 2 {
				t.Errorf("derivations = %d, want 2", derivs)
			}
			if got := db.MustTable("Dst").Len(); got != 1 {
				t.Errorf("Dst has %d rows, want 1 (key dedup)", got)
			}
		})
	}
}

func BenchmarkEngineTransitiveClosure(b *testing.B) {
	mk := func() (*relstore.Database, []Rule) {
		db := relstore.NewDatabase()
		cols := []model.Column{{Name: "a", Type: model.TypeInt}, {Name: "b", Type: model.TypeInt}}
		edge, _ := db.CreateTable(&relstore.TableSchema{Name: "edge", Columns: cols, Key: []int{0, 1}})
		db.CreateTable(&relstore.TableSchema{Name: "path", Columns: cols, Key: []int{0, 1}})
		for i := int64(0); i < 150; i++ {
			edge.Insert(model.Tuple{i, i + 1})
		}
		rules := []Rule{
			NewRule("base", model.NewAtom("path", model.V("x"), model.V("y")),
				model.NewAtom("edge", model.V("x"), model.V("y"))),
			NewRule("step", model.NewAtom("path", model.V("x"), model.V("z")),
				model.NewAtom("edge", model.V("x"), model.V("y")),
				model.NewAtom("path", model.V("y"), model.V("z"))),
		}
		return db, rules
	}
	b.Run("legacy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db, rules := mk()
			if err := NewEngineLegacy(db).Run(rules); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db, rules := mk()
			if err := NewEngine(db).Run(rules); err != nil {
				b.Fatal(err)
			}
		}
	})
}
