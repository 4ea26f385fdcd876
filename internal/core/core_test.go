package core_test

import (
	"context"
	"fmt"
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

// checkASRRewrite defines one ASR of kind over the chain m5∘m1 on the
// facade's exchange system and checks that the relational translation
// answers the whole-target query the same with the rewrite as without.
// The facade keeps no ASR; the index is driven directly, on an engine
// pinned to the translation the rewrite applies to.
func checkASRRewrite(t *testing.T, sys *core.System, kind asr.Kind) {
	t.Helper()
	eng := proql.NewEngine(sys.Exchange())
	q := proql.MustParse(`FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x`)
	rel := proql.Options{Backend: "relational"}
	base, err := eng.Exec(context.Background(), q, rel)
	if err != nil {
		t.Fatal(err)
	}
	ix := asr.NewIndex(sys.Exchange())
	if _, err := ix.Define(kind, "m5", "m1"); err != nil {
		t.Fatal(err)
	}
	if err := ix.Materialize(); err != nil {
		t.Fatal(err)
	}
	if ix.TotalRows() == 0 {
		t.Error("ASR table should be materialized")
	}
	eng.RewriteRules = ix.RewriteRules
	opt, err := eng.Exec(context.Background(), q, rel)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Stats.Backend != "relational" {
		t.Fatalf("rewritten query ran on %s", opt.Stats.Backend)
	}
	if fmt.Sprint(opt.SortedRefs("x")) != fmt.Sprint(base.SortedRefs("x")) {
		t.Error("ASR-rewritten query changed the result")
	}
	if got, want := opt.MustGraph().NumDerivations(), base.MustGraph().NumDerivations(); got != want {
		t.Errorf("derivations %d with ASRs, %d without", got, want)
	}
}

func TestFacadeASRLifecycle(t *testing.T) {
	checkASRRewrite(t, openExample(t), asr.Subpath)
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
	// New upstream data: A(3) with a curated N(3) partner, so m1 and
	// m5 derive new tuples too.
	if err := sys.InsertLocal("A", model.Tuple{int64(3), "sn3", int64(9)}); err != nil {
		t.Fatal(err)
	}
	if err := sys.InsertLocal("N", model.Tuple{int64(3), "cn3", false}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
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

// TestAdviseASRs checks a suffix ASR, the kind Section 6.4 finds best
// for target queries, over m5∘m1, the running example's one mapping
// chain into O longer than a single mapping.
func TestAdviseASRs(t *testing.T) {
	checkASRRewrite(t, openExample(t), asr.Suffix)
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
