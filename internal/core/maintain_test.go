package core_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/model"
	"repro/internal/proql"
)

// targetQuery is the running example's whole-target projection.
const targetQuery = `FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x`

// warmPathBackends runs q once on the path backend, so the
// engine has planned it against the current epoch.
func warmPathBackends(t *testing.T, sys *core.System, q string) {
	t.Helper()
	if _, err := sys.Engine().Exec(context.Background(), proql.MustParse(q), proql.Options{Backend: "path"}); err != nil {
		t.Fatal(err)
	}
}

// queryAfterWrite runs q on the path backend of sys's engine,
// warmed before the write, and of a fresh engine over the same storage;
// every answer (bindings and projected derivations) must be the same.
// It returns the bindings of $x.
func queryAfterWrite(t *testing.T, sys *core.System, q string) []model.TupleRef {
	t.Helper()
	fresh := proql.NewEngine(sys.Exchange())
	var want string
	var refs []model.TupleRef
	backend := "path"
	for name, eng := range map[string]*proql.Engine{"warm": sys.Engine(), "fresh": fresh} {
		res, err := eng.Exec(context.Background(), proql.MustParse(q), proql.Options{Backend: backend})
		if err != nil {
			t.Fatalf("%s engine, %s: %v", name, backend, err)
		}
		var derivs []string
		for _, d := range res.MustGraph().Derivations() {
			derivs = append(derivs, d.ID)
		}
		got := fmt.Sprint(res.SortedRefs("x"), derivs)
		if want == "" {
			want, refs = got, res.SortedRefs("x")
		} else if got != want {
			t.Errorf("%s engine, %s: %s, want %s", name, backend, got, want)
		}
	}
	return refs
}

// TestFacadeDeleteLocalPatchesGraph: after the facade's DeleteLocal,
// path queries on the warm engine answer what a fresh engine
// over the same storage answers.
func TestFacadeDeleteLocalPatchesGraph(t *testing.T) {
	sys := openExample(t)
	warmPathBackends(t, sys, targetQuery)
	report, err := sys.DeleteLocal("A", []model.Datum{int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	if report.TuplesDeleted == 0 {
		t.Fatalf("deletion should have propagated, report=%+v", report)
	}
	got := queryAfterWrite(t, sys, targetQuery)
	// The surviving O tuples rest on A(2) only.
	for _, ref := range got {
		if ref.Rel != "O" {
			t.Errorf("unexpected relation in result: %v", ref)
		}
	}
	if len(got) != 2 {
		t.Errorf("want 2 surviving O tuples, got %d", len(got))
	}
}

// TestFacadeDeleteThenRerun: deletions followed by new inserts and a
// re-Run must keep storage and query results coherent.
func TestFacadeDeleteThenRerun(t *testing.T) {
	sys := openExample(t)
	if _, err := sys.DeleteLocal("A", []model.Datum{int64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := sys.InsertLocal("A", model.Tuple{int64(1), "sn1", int64(7)}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	// Everything that rested on A(1) is re-derived.
	sysFresh := fixture.MustSystem(fixture.Options{})
	for _, rel := range []string{"A", "C", "N", "O"} {
		got := sys.Exchange().DB.MustTable(rel).SortedRows()
		want := sysFresh.DB.MustTable(rel).SortedRows()
		if len(got) != len(want) {
			t.Errorf("%s: %d rows after delete+rerun, want %d", rel, len(got), len(want))
			continue
		}
		for i := range got {
			if model.EncodeDatums(got[i]) != model.EncodeDatums(want[i]) {
				t.Errorf("%s row %d: %v vs %v", rel, i, got[i], want[i])
			}
		}
	}
	// And a second deletion still propagates correctly off the
	// hook-maintained index.
	report, err := sys.DeleteLocal("A", []model.Datum{int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	if report.TuplesDeleted != 5 {
		t.Errorf("TuplesDeleted = %d, want 5", report.TuplesDeleted)
	}
}
