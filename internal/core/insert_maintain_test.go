package core_test

import (
	"testing"

	"repro/internal/model"
)

// TestFacadeRunPatchesGraphOnInsert: after the first full run, the
// facade's Run propagates new local rows with the Δ-seeded RunDelta;
// path queries on the warm engine afterwards answer what a
// fresh engine over the same storage answers.
func TestFacadeRunPatchesGraphOnInsert(t *testing.T) {
	sys := openExample(t)
	warmPathBackends(t, sys, targetQuery)
	if err := sys.InsertLocal("A", model.Tuple{int64(3), "sn3", int64(4)}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	got := queryAfterWrite(t, sys, targetQuery)
	// The new A(3) row derives O(sn3,4) via m4.
	found := false
	for _, ref := range got {
		if ref == model.RefFromKey("O", []model.Datum{"sn3", int64(4)}) {
			found = true
		}
	}
	if !found {
		t.Errorf("newly derived O tuple missing from query results: %v", got)
	}
}

// TestFacadeRunAfterDeleteStaysDelta: a deletion feeds its report
// back into the persistent engine journals (datalog journal repair),
// so the Run after a DeleteLocal is STILL delta-seeded — the run
// enumerates only the affected derivations — and results still match
// a fresh engine.
func TestFacadeRunAfterDeleteStaysDelta(t *testing.T) {
	sys := openExample(t)
	fullDerivations := sys.Exchange().LastDerivations
	warmPathBackends(t, sys, targetQuery)
	if _, err := sys.DeleteLocal("A", []model.Datum{int64(1)}); err != nil {
		t.Fatal(err)
	}
	if !sys.Exchange().DeltaReady() {
		t.Fatal("deletion broke the delta chain (journal repair failed)")
	}
	if err := sys.InsertLocal("A", model.Tuple{int64(1), "sn1", int64(7)}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	// The post-deletion run was delta-seeded: it enumerated only the
	// derivations of the re-inserted row, not the whole fixpoint.
	if got := sys.Exchange().LastDerivations; got >= fullDerivations {
		t.Fatalf("run after deletion enumerated %d derivations (full fixpoint is %d) — not delta-seeded",
			got, fullDerivations)
	}
	if got := queryAfterWrite(t, sys, targetQuery); len(got) != 4 {
		t.Errorf("got %d O tuples after delete and re-insert, want all 4", len(got))
	}
}
