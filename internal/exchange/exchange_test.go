package exchange_test

import (
	"testing"

	"repro/internal/exchange"
	"repro/internal/fixture"
	"repro/internal/model"
)

func TestExchangeRunningExampleAcyclic(t *testing.T) {
	sys := fixture.MustSystem(fixture.Options{})

	// A has the two base tuples.
	if got := sys.DB.MustTable("A").Len(); got != 2 {
		t.Errorf("A has %d rows, want 2", got)
	}
	// N: base (1,cn1,false) + m2 (1,sn1,true), (2,sn2,true).
	if got := sys.DB.MustTable("N").Len(); got != 3 {
		t.Errorf("N has %d rows, want 3", got)
	}
	// C: base (2,cn2) + m1 from A(1),N(1,cn1,false) → (1,cn1).
	if got := sys.DB.MustTable("C").Len(); got != 2 {
		t.Errorf("C has %d rows, want 2", got)
	}
	// O: m4 (sn1,7), (sn2,5); m5 (cn1,7), (cn2,5).
	if got := sys.DB.MustTable("O").Len(); got != 4 {
		t.Errorf("O has %d rows, want 4", got)
	}
	for _, want := range [][]model.Datum{
		{"sn1", int64(7)}, {"sn2", int64(5)}, {"cn1", int64(7)}, {"cn2", int64(5)},
	} {
		if _, ok := sys.DB.MustTable("O").LookupKey(want); !ok {
			t.Errorf("O missing %v", want)
		}
	}
}

func TestExchangeProvenanceRows(t *testing.T) {
	sys := fixture.MustSystem(fixture.Options{})

	// m1 fired once: (i=1, n=cn1). Its provenance relation carries the
	// deduplicated keys: i, n (N key includes canon=false constant, O
	// absent).
	rows, err := sys.ProvRows(fixture.M1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("P_m1 has %d rows, want 1", len(rows))
	}
	// m5 fired twice: (1, cn1) and (2, cn2).
	rows, err = sys.ProvRows(fixture.M5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("P_m5 has %d rows, want 2", len(rows))
	}
	// m2 and m4 are projections over A: superfluous, virtual views.
	for _, name := range []string{fixture.M2, fixture.M4} {
		pr := sys.Prov[name]
		if !pr.Virtual {
			t.Errorf("%s should have a virtual provenance relation", name)
		}
		rows, err := sys.ProvRows(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 {
			t.Errorf("%s virtual rows = %d, want 2 (one per A tuple)", name, len(rows))
		}
	}
	// m1 and m5 are joins: materialized.
	for _, name := range []string{fixture.M1, fixture.M5} {
		if sys.Prov[name].Virtual {
			t.Errorf("%s should be materialized", name)
		}
	}
}

func TestExchangeMaterializeAllOption(t *testing.T) {
	sys := fixture.MustSystem(fixture.Options{
		Exchange: exchange.Options{MaterializeAll: true},
	})
	for _, name := range []string{fixture.M1, fixture.M2, fixture.M4, fixture.M5} {
		if sys.Prov[name].Virtual {
			t.Errorf("MaterializeAll should disable virtual provenance for %s", name)
		}
	}
	// Materialized and virtual row sets must agree with the default run.
	def := fixture.MustSystem(fixture.Options{})
	for _, name := range []string{fixture.M2, fixture.M4} {
		a, err := sys.ProvRows(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := def.ProvRows(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Errorf("%s: materialized %d rows vs virtual %d", name, len(a), len(b))
		}
	}
	if sys.ProvRowCount() <= def.ProvRowCount() {
		t.Errorf("materialize-all should store more provenance rows (%d vs %d)",
			sys.ProvRowCount(), def.ProvRowCount())
	}
}

func TestExchangeCyclicMappingsTerminate(t *testing.T) {
	// With m3, C and N derive each other; exchange must still reach a
	// fixpoint (set semantics) and record the extra derivations.
	sys := fixture.MustSystem(fixture.Options{IncludeM3: true})
	// m3 adds N(2,cn2,false) (from C(2,cn2)) and re-derives N(1,cn1,false).
	if got := sys.DB.MustTable("N").Len(); got != 4 {
		t.Errorf("N has %d rows, want 4", got)
	}
	// m1 now also derives C(2,cn2) via N(2,cn2,false): P_m1 has 2 rows.
	rows, err := sys.ProvRows(fixture.M1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("P_m1 has %d rows, want 2", len(rows))
	}
	// m3's provenance: one derivation per C tuple (it is a projection,
	// hence virtual).
	rows, err = sys.ProvRows(fixture.M3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Errorf("P_m3 has %d rows, want 2", len(rows))
	}
	// O gains O(cn2, 7)? No: m5 joins A(i,_,h), C(i,n); C unchanged
	// keys; O stays at 4.
	if got := sys.DB.MustTable("O").Len(); got != 4 {
		t.Errorf("O has %d rows, want 4", got)
	}
}

func TestIsLeaf(t *testing.T) {
	sys := fixture.MustSystem(fixture.Options{})
	if !sys.IsLeafRef(model.RefFromKey("A", []model.Datum{int64(1)})) {
		t.Error("A(1) is a leaf")
	}
	if !sys.IsLeafRef(model.RefFromKey("C", []model.Datum{int64(2), "cn2"})) {
		t.Error("C(2,cn2) is a leaf")
	}
	if sys.IsLeafRef(model.RefFromKey("C", []model.Datum{int64(1), "cn1"})) {
		t.Error("C(1,cn1) is derived only")
	}
	if sys.IsLeafRef(model.RefFromKey("O", []model.Datum{"sn1", int64(7)})) {
		t.Error("O tuples are never local")
	}
	if sys.IsLeafRef(model.RefFromKey("nope", nil)) {
		t.Error("unknown relation is not a leaf")
	}
}

func TestAtomRefs(t *testing.T) {
	sys := fixture.MustSystem(fixture.Options{})
	pr := sys.Prov[fixture.M5]
	rows, err := sys.ProvRows(fixture.M5)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		sources, targets, err := sys.AtomRefs(pr, row)
		if err != nil {
			t.Fatal(err)
		}
		if len(sources) != 2 || len(targets) != 1 {
			t.Fatalf("m5 derivation should have 2 sources, 1 target; got %d/%d", len(sources), len(targets))
		}
		if sources[0].Rel != "A" || sources[1].Rel != "C" || targets[0].Rel != "O" {
			t.Errorf("refs = %v -> %v", sources, targets)
		}
	}
}

func TestInsertLocalValidation(t *testing.T) {
	sys := fixture.MustSystem(fixture.Options{})
	if err := sys.InsertLocal("nope", model.Tuple{int64(1)}); err == nil {
		t.Error("unknown relation should error")
	}
	if err := sys.InsertLocal("A", model.Tuple{int64(1)}); err == nil {
		t.Error("arity mismatch should error")
	}
}

// dbSignature renders every table (instance and provenance relations
// alike) in sorted-row order for whole-database comparison.
func dbSignature(t *testing.T, sys *exchange.System) string {
	t.Helper()
	sig := ""
	for _, name := range sys.DB.TableNames() {
		sig += name + ":"
		for _, row := range sys.DB.MustTable(name).SortedRows() {
			sig += model.EncodeDatums(row) + ";"
		}
		sig += "\n"
	}
	return sig
}

func TestExchangeCompiledMatchesLegacy(t *testing.T) {
	// The compiled semi-naive engine (Run) and the interpreting oracle
	// must materialize identical instances and identical provenance
	// tables, on both the acyclic and the cyclic (m3) running example.
	for _, includeM3 := range []bool{false, true} {
		opts := fixture.Options{IncludeM3: includeM3}
		schema, err := fixture.Schema(opts)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := exchange.NewSystem(schema, exchange.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for rel, rows := range map[string][]model.Tuple{
			"A": {{int64(1), "sn1", int64(7)}, {int64(2), "sn2", int64(5)}},
			"N": {{int64(1), "cn1", false}},
			"C": {{int64(2), "cn2"}},
		} {
			if err := oracle.InsertLocal(rel, rows...); err != nil {
				t.Fatal(err)
			}
		}
		if err := oracle.RunInterpreted(); err != nil {
			t.Fatal(err)
		}
		want := dbSignature(t, oracle)
		sys := fixture.MustSystem(opts)
		if got := dbSignature(t, sys); got != want {
			t.Errorf("m3=%v: compiled database differs from the interpreter's\ninterpreter:\n%s\ngot:\n%s",
				includeM3, want, got)
		}
	}
}

func TestIncrementalReRun(t *testing.T) {
	// Inserting more local data and re-running propagates the new
	// tuples and their provenance.
	sys := fixture.MustSystem(fixture.Options{})
	before := sys.DB.MustTable("O").Len()
	if err := sys.InsertLocal("A", model.Tuple{int64(3), "sn3", int64(9)}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	after := sys.DB.MustTable("O").Len()
	if after != before+1 { // m4 adds O(sn3, 9, true); no C partner for m5
		t.Errorf("O grew from %d to %d, want +1", before, after)
	}
	if _, ok := sys.DB.MustTable("O").LookupKey([]model.Datum{"sn3", int64(9)}); !ok {
		t.Error("missing propagated O(sn3,9)")
	}
}
