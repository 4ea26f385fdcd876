package exchange_test

import (
	"testing"

	"repro/internal/exchange"
	"repro/internal/fixture"
	"repro/internal/model"
)

// TestReportUnknownAndRepeatedKeys: unknown keys never propagate, and
// a second delete of the same key is a no-op with a zeroed report.
func TestReportUnknownAndRepeatedKeys(t *testing.T) {
	sys := fixture.MustSystem(fixture.Options{})
	first, err := sys.DeleteLocal("A", []model.Datum{int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	if first.LocalDeleted != 1 || first.TuplesDeleted != 5 {
		t.Fatalf("first delete: %+v", first)
	}
	again, err := sys.DeleteLocal("A", []model.Datum{int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	if again.LocalDeleted != 0 || again.TuplesDeleted != 0 || again.DerivationsDeleted != 0 ||
		again.TuplesVisited != 0 || again.DerivationsVisited != 0 ||
		len(again.DeletedTuples) != 0 || len(again.DeletedLocals) != 0 {
		t.Errorf("repeated delete should be a full no-op: %+v", again)
	}
	// A batch mixing unknown keys with one real key reports only the
	// real deletion.
	mixed, err := sys.DeleteLocal("A", []model.Datum{int64(404)}, []model.Datum{int64(2)})
	if err != nil {
		t.Fatal(err)
	}
	if mixed.LocalDeleted != 1 || len(mixed.DeletedLocals) != 1 {
		t.Errorf("mixed batch: %+v", mixed)
	}
}

// TestReportLocallyContributedElsewhere: deleting the local
// contribution of a tuple that is also derived through a mapping
// removes only the leaf status — the tuple and its derivations stay.
func TestReportLocallyContributedElsewhere(t *testing.T) {
	sys := fixture.MustSystem(fixture.Options{})
	// N(1,sn1,true) is derived by m2 from A(1); add a local
	// contribution for the very same tuple.
	if err := sys.InsertLocal("N", model.Tuple{int64(1), "sn1", true}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	report, err := sys.DeleteLocal("N", []model.Datum{int64(1), "sn1", true})
	if err != nil {
		t.Fatal(err)
	}
	if report.LocalDeleted != 1 {
		t.Fatalf("LocalDeleted = %d", report.LocalDeleted)
	}
	if report.TuplesDeleted != 0 || report.DerivationsDeleted != 0 {
		t.Errorf("tuple survives via m2; report: %+v", report)
	}
	if _, ok := sys.DB.MustTable("N").LookupKey([]model.Datum{int64(1), "sn1", true}); !ok {
		t.Error("N(1,sn1,true) should survive through its m2 derivation")
	}
	if sys.IsLeafRef(model.RefFromKey("N", []model.Datum{int64(1), "sn1", true})) {
		t.Error("leaf status should be gone")
	}
}

// TestReportVirtualProvenance: deletions propagating through virtual
// (superfluous) provenance relations are counted like materialized
// ones, and the deleted-derivation list names both kinds.
func TestReportVirtualProvenance(t *testing.T) {
	sys := fixture.MustSystem(fixture.Options{})
	if !sys.Prov[fixture.M2].Virtual || !sys.Prov[fixture.M4].Virtual {
		t.Fatal("precondition: m2 and m4 should be virtual in the fixture")
	}
	if sys.Prov[fixture.M1].Virtual || sys.Prov[fixture.M5].Virtual {
		t.Fatal("precondition: m1 and m5 should be materialized")
	}
	report, err := sys.DeleteLocal("A", []model.Datum{int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	// Invalidated: m1's C(1,cn1), m2's N(1,sn1,true), m4's O(sn1,7),
	// m5's O(cn1,7) — two virtual, two materialized.
	if report.DerivationsDeleted != 4 {
		t.Errorf("DerivationsDeleted = %d, want 4 (report %+v)", report.DerivationsDeleted, report)
	}
	byMapping := map[string]int{}
	for _, dd := range report.DeletedDerivations {
		byMapping[dd.Mapping]++
	}
	for _, m := range []string{fixture.M1, fixture.M2, fixture.M4, fixture.M5} {
		if byMapping[m] != 1 {
			t.Errorf("mapping %s: %d deleted derivations, want 1 (%v)", m, byMapping[m], byMapping)
		}
	}
	// The virtual rows must be gone from the reconstructed views too.
	rows, err := sys.ProvRows(fixture.M2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 { // only A(2)'s derivation remains
		t.Errorf("m2 virtual provenance rows = %d, want 1", len(rows))
	}
}

// TestReportMaterializeAllMatchesVirtual: the same deletion over the
// MaterializeAll layout produces identical tables and counts.
func TestReportMaterializeAllMatchesVirtual(t *testing.T) {
	def := fixture.MustSystem(fixture.Options{})
	mat := fixture.MustSystem(fixture.Options{Exchange: exchange.Options{MaterializeAll: true}})
	rDef, err := def.DeleteLocal("A", []model.Datum{int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	rMat, err := mat.DeleteLocal("A", []model.Datum{int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	if rDef.TuplesDeleted != rMat.TuplesDeleted || rDef.DerivationsDeleted != rMat.DerivationsDeleted {
		t.Errorf("layouts disagree: virtual %+v vs materialized %+v", rDef, rMat)
	}
	for _, rel := range []string{"A", "C", "N", "O"} {
		a, b := def.DB.MustTable(rel).SortedRows(), mat.DB.MustTable(rel).SortedRows()
		if len(a) != len(b) {
			t.Errorf("%s: %d vs %d rows", rel, len(a), len(b))
		}
	}
}

// TestDeleteLocalShortCircuit is the regression test for the no-uses
// fast path: deleting base tuples of a relation no mapping touches
// must not walk any provenance — a walk that scanned the provenance
// tables would re-read every row of every mapping even then.
func TestDeleteLocalShortCircuit(t *testing.T) {
	schema, err := fixture.Schema(fixture.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// S is a standalone relation: no mapping reads or derives it.
	if err := schema.AddRelation(model.MustRelation("S", []model.Column{
		{Name: "id", Type: model.TypeInt},
	}, "id")); err != nil {
		t.Fatal(err)
	}
	sys, err := exchange.NewSystem(schema, exchange.Options{})
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(sys.InsertLocal("A", model.Tuple{int64(1), "sn1", int64(7)}))
	must(sys.InsertLocal("N", model.Tuple{int64(1), "cn1", false}))
	must(sys.InsertLocal("S", model.Tuple{int64(10)}, model.Tuple{int64(11)}))
	must(sys.Run())
	lenBefore := map[string]int{}
	for _, rel := range []string{"A", "N", "C", "O"} {
		lenBefore[rel] = sys.DB.MustTable(rel).Len()
	}

	report, err := sys.DeleteLocal("S", []model.Datum{int64(10)})
	if err != nil {
		t.Fatal(err)
	}
	if report.DerivationsVisited != 0 {
		t.Errorf("DerivationsVisited = %d, want 0 (no mapping touches S)", report.DerivationsVisited)
	}
	if report.TuplesVisited != 1 {
		t.Errorf("TuplesVisited = %d, want 1 (just the deleted ref)", report.TuplesVisited)
	}
	if report.TuplesDeleted != 1 { // the public copy of S(10)
		t.Errorf("TuplesDeleted = %d, want 1", report.TuplesDeleted)
	}
	if _, ok := sys.DB.MustTable("S").LookupKey([]model.Datum{int64(10)}); ok {
		t.Error("public S(10) should be gone")
	}
	if _, ok := sys.DB.MustTable("S").LookupKey([]model.Datum{int64(11)}); !ok {
		t.Error("S(11) should survive")
	}
	// Nothing else moved.
	for _, rel := range []string{"A", "N", "C", "O"} {
		if got := sys.DB.MustTable(rel).Len(); got != lenBefore[rel] {
			t.Errorf("%s: %d rows, had %d before the unrelated delete", rel, got, lenBefore[rel])
		}
	}
}
