package core_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/asr"
	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/model"
	"repro/internal/proql"
)

func openExample(t *testing.T) *core.System {
	t.Helper()
	schema, err := fixture.Schema(fixture.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.Open(schema, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.InsertLocal("A",
		model.Tuple{int64(1), "sn1", int64(7)},
		model.Tuple{int64(2), "sn2", int64(5)},
	); err != nil {
		t.Fatal(err)
	}
	if err := sys.InsertLocal("N", model.Tuple{int64(1), "cn1", false}); err != nil {
		t.Fatal(err)
	}
	if err := sys.InsertLocal("C", model.Tuple{int64(2), "cn2"}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestFacadeEndToEnd(t *testing.T) {
	sys := openExample(t)
	res, err := sys.Query(`EVALUATE DERIVABILITY OF { FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Annotations) != 4 {
		t.Errorf("annotations = %d", len(res.Annotations))
	}
	out := core.FormatResult(res, "x")
	if !strings.Contains(out, "-> true") || !strings.Contains(out, "4 results") {
		t.Errorf("FormatResult output:\n%s", out)
	}
}

// queryRelational runs q on the relational translation, the baseline
// an ASR rewrite must preserve.
func queryRelational(t *testing.T, sys *core.System, q string) *proql.Result {
	t.Helper()
	res, err := sys.Engine().Exec(context.Background(), proql.MustParse(q), proql.Options{Backend: "relational"})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// queryRewritten runs q through the facade with ASRs in use, which
// routes it to the relational translation the rewrite applies to.
func queryRewritten(t *testing.T, sys *core.System, q string) *proql.Result {
	t.Helper()
	res, err := sys.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Backend != "relational" {
		t.Fatalf("with ASRs in use the facade ran %q on %s, not the rewritten translation", q, res.Stats.Backend)
	}
	return res
}

func TestFacadeASRLifecycle(t *testing.T) {
	sys := openExample(t)
	q := `FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x`
	base := queryRelational(t, sys, q)
	if err := sys.DefineASR(asr.Subpath, "m5", "m1"); err != nil {
		t.Fatal(err)
	}
	sys.UseASRs(true)
	opt := queryRewritten(t, sys, q)
	if len(opt.SortedRefs("x")) != len(base.SortedRefs("x")) {
		t.Error("ASR-rewritten query changed the result")
	}
	if got, want := opt.MustGraph().NumDerivations(), base.MustGraph().NumDerivations(); got != want {
		t.Errorf("derivations %d with ASRs, %d without", got, want)
	}
	sys.UseASRs(false)
	if sys.ASRIndex().TotalRows() == 0 {
		t.Error("ASR table should be materialized")
	}
}

func TestFacadeWriteDOT(t *testing.T) {
	sys := openExample(t)
	var sb strings.Builder
	if err := sys.WriteDOT(&sb, "example"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "digraph provenance") {
		t.Error("DOT output malformed")
	}
}

func TestFacadeIncrementalRun(t *testing.T) {
	sys := openExample(t)
	if err := sys.DefineASR(asr.CompletePath, "m5", "m1"); err != nil {
		t.Fatal(err)
	}
	before := sys.ASRIndex().TotalRows()
	// New upstream data: A(3) joins nothing new for m5∘m1... add a C
	// partner so the complete path grows.
	if err := sys.InsertLocal("A", model.Tuple{int64(3), "sn3", int64(9)}); err != nil {
		t.Fatal(err)
	}
	if err := sys.InsertLocal("N", model.Tuple{int64(3), "cn3", false}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	after := sys.ASRIndex().TotalRows()
	if after <= before {
		t.Errorf("ASR not refreshed on Run: %d -> %d", before, after)
	}
	res, err := sys.Query(`FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x`)
	if err != nil {
		t.Fatal(err)
	}
	// New derivations: m2/m4 for A(3), m1 for C(3,cn3), m5 for O(cn3,9).
	if got := len(res.SortedRefs("x")); got != 6 {
		t.Errorf("O bindings after incremental run = %d, want 6", got)
	}
}

func TestAdviseASRs(t *testing.T) {
	sys := openExample(t)
	q := `FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x`
	base := queryRelational(t, sys, q)
	if err := sys.AdviseASRs("O", 4); err != nil {
		t.Fatal(err)
	}
	if len(sys.ASRIndex().Defs()) == 0 {
		t.Fatal("advisor registered no definitions")
	}
	opt := queryRewritten(t, sys, q)
	if len(opt.SortedRefs("x")) != len(base.SortedRefs("x")) {
		t.Error("advised ASRs changed query results")
	}
	if got, want := opt.MustGraph().NumDerivations(), base.MustGraph().NumDerivations(); got != want {
		t.Errorf("derivations %d with ASRs, %d without", got, want)
	}
}

func TestWrapMatchesOpen(t *testing.T) {
	ex := fixture.MustSystem(fixture.Options{})
	wrapped := core.Wrap(ex)
	res, err := wrapped.Query(`FOR [O $x] RETURN $x`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SortedRefs("x")) != 4 {
		t.Errorf("wrapped query bindings = %d", len(res.SortedRefs("x")))
	}
}
