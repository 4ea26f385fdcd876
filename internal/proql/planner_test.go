package proql

import (
	"context"
	"strings"
	"testing"

	"repro/internal/fixture"
	"repro/internal/model"
	"repro/internal/provgraph"
)

// assertSameGraphResults cross-checks the planned pipeline against the
// interpreter on one query: identical bindings per returned
// variable and an identical projected-derivation count.
func assertSameGraphResults(t *testing.T, e *Engine, text string, vars []string) {
	t.Helper()
	q := MustParse(text)
	planned, err := e.Exec(context.Background(), q, Options{Backend: "path"})
	if err != nil {
		t.Fatalf("%s: planned: %v", text, err)
	}
	interp, err := ExecInterpreter(e, context.Background(), q, 0)
	if err != nil {
		t.Fatalf("%s: interpreter: %v", text, err)
	}
	for _, v := range vars {
		p, l := planned.SortedRefs(v), interp.SortedRefs(v)
		if len(p) != len(l) {
			t.Fatalf("%s: $%s bindings %d vs %d", text, v, len(p), len(l))
		}
		for i := range p {
			if p[i] != l[i] {
				t.Errorf("%s: $%s binding %d: %v vs %v", text, v, i, p[i], l[i])
			}
		}
	}
	if pd, ld := planned.MustGraph().NumDerivations(), interp.MustGraph().NumDerivations(); pd != ld {
		t.Errorf("%s: projected derivations %d vs %d", text, pd, ld)
	}
	if planned.Annotations != nil || interp.Annotations != nil {
		if len(planned.Annotations) != len(interp.Annotations) {
			t.Fatalf("%s: annotations %d vs %d", text, len(planned.Annotations), len(interp.Annotations))
		}
		for ref, v := range interp.Annotations {
			pv, ok := planned.Annotations[ref]
			if !ok || !interp.Semiring.Eq(v, pv) {
				t.Errorf("%s: annotation mismatch for %v", text, ref)
			}
		}
	}
}

func TestPlannedMatchesLegacyOnExampleQueries(t *testing.T) {
	e := exampleEngine(t)
	for _, tc := range []struct {
		text string
		vars []string
	}{
		{`FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x`, []string{"x"}},
		{`FOR [O $x] <-+ [A $y] INCLUDE PATH [$x] <-+ [$y] RETURN $x`, []string{"x"}},
		{`FOR [$x] <$p [], [$y] <- [$x] WHERE $p = m1 OR $p = m2 INCLUDE PATH [$y] <- [$x] RETURN $y`, []string{"y"}},
		{`FOR [O $x] <-+ [$z], [C $y] <-+ [$z] INCLUDE PATH [$x] <-+ [], [$y] <-+ [] RETURN $x, $y`, []string{"x", "y"}},
		{`FOR [C $x] <m1 [A $y] INCLUDE PATH [$x] <m1 [$y] RETURN $x`, []string{"x"}},
		{`FOR [O $x] WHERE [$x] <- [C] RETURN $x`, []string{"x"}},
		{`FOR [O $x] WHERE $x.height >= 6 INCLUDE PATH [$x] <-+ [] RETURN $x`, []string{"x"}},
		{`FOR [O $x] WHERE $x IN O AND NOT [$x] <- [C] RETURN $x`, []string{"x"}},
		{`FOR [A $x] RETURN $x`, []string{"x"}},
		{`EVALUATE DERIVABILITY OF { FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x }`, []string{"x"}},
		{`EVALUATE TRUST OF {
			FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x
		} ASSIGNING EACH leaf_node $y {
			CASE $y in C : SET true
			CASE $y in A and $y.length >= 6 : SET false
			DEFAULT : SET true
		} ASSIGNING EACH mapping $p($z) {
			CASE $p = m4 : SET false
			DEFAULT : SET $z
		}`, []string{"x"}},
	} {
		assertSameGraphResults(t, e, tc.text, tc.vars)
	}
}

func TestPlannedMatchesLegacyOnCyclicGraph(t *testing.T) {
	e := NewEngine(fixture.MustSystem(fixture.Options{IncludeM3: true}))
	for _, tc := range []struct {
		text string
		vars []string
	}{
		{`FOR [N $x] INCLUDE PATH [$x] <-+ [] RETURN $x`, []string{"x"}},
		{`FOR [C $x] <-+ [$z], [N $y] <-+ [$z] RETURN $x, $y`, []string{"x", "y"}},
		{`EVALUATE DERIVABILITY OF { FOR [N $x] INCLUDE PATH [$x] <-+ [] RETURN $x }`, []string{"x"}},
	} {
		assertSameGraphResults(t, e, tc.text, tc.vars)
	}
}

func TestPlannedErrorParity(t *testing.T) {
	e := exampleEngine(t)
	for _, text := range []string{
		// Unbound RETURN variable.
		`FOR [O $x] <-+ [$y], [C $w] <-+ [$y] RETURN $z`,
		// RETURN of a derivation variable.
		`FOR [$x] <$p [] RETURN $p`,
		// WHERE over an unbound variable.
		`FOR [O $x] WHERE $q.height = 1 RETURN $x`,
	} {
		if _, err := e.Exec(context.Background(), MustParse(text), Options{Backend: "path"}); err == nil {
			t.Errorf("%s: planned should error", text)
		}
		if _, err := ExecInterpreter(e, context.Background(), MustParse(text), 0); err == nil {
			t.Errorf("%s: interpreter should error", text)
		}
	}
}

// TestBindingSignatureCollisionFree is the regression test for the
// interpreter's deduplication key: the old implementation joined raw
// node names with a separator that can itself occur in a name, so
// distinct bindings could collide; and an all-unbound binding produced
// the empty signature, which disabled deduplication entirely.
func TestBindingSignatureCollisionFree(t *testing.T) {
	g := provgraph.New()
	d1 := g.AddDerivation("m\x001", "m1", nil, []model.TupleRef{model.RefFromKey("O", []model.Datum{int64(1)})})
	d2 := g.AddDerivation("x", "m1", nil, []model.TupleRef{model.RefFromKey("O", []model.Datum{int64(2)})})
	d3 := g.AddDerivation("m", "m1", nil, []model.TupleRef{model.RefFromKey("O", []model.Datum{int64(3)})})
	d4 := g.AddDerivation("1\x00x", "m1", nil, []model.TupleRef{model.RefFromKey("O", []model.Datum{int64(4)})})
	vars := []string{"p", "q"}
	b1 := graphBinding{"p": d1, "q": d2} // IDs "m\x001", "x"
	b2 := graphBinding{"p": d3, "q": d4} // IDs "m", "1\x00x"
	if bindingSignature(b1, vars) == bindingSignature(b2, vars) {
		t.Error("distinct derivation bindings must not collide")
	}
	// Unbound variables must be marked, not skipped.
	b3 := graphBinding{"p": d1}
	if bindingSignature(b3, vars) == bindingSignature(b1, vars) {
		t.Error("partially bound binding must differ from fully bound")
	}
	if sig := bindingSignature(graphBinding{}, vars); sig == "" {
		t.Error("all-unbound signature must be non-empty so dedup still applies")
	}
}

func TestExplainGraphQueryShowsPhysicalPlan(t *testing.T) {
	e := exampleEngine(t)
	// The INCLUDE paths read only returned variables, so the dedup on
	// RETURN fuses into the hash join on $z.
	out, err := e.ExplainString(`FOR [O $x] <-+ [$z], [C $y] <-+ [$z] INCLUDE PATH [$x] <-+ [], [$y] <-+ [] RETURN $x, $y`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"backend: path",
		"join order:",
		"physical plan:",
		"DistinctJoin(on $z; distinct $x, $y)",
		"Scan(",
		"Include(",
		"Project($x, $y)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "Dedup(") || strings.Contains(out, "HashJoin(") {
		t.Errorf("dedup should be fused into the join:\n%s", out)
	}
	// An INCLUDE over the non-returned $z reads Dedup's representative
	// row: the operators stay apart.
	out, err = e.ExplainString(`FOR [O $x] <-+ [$z], [C $y] <-+ [$z] INCLUDE PATH [$z] <-+ [] RETURN $x, $y`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Dedup($x, $y)") || !strings.Contains(out, "HashJoin(on $z)") {
		t.Errorf("dedup must not fuse under an INCLUDE of $z:\n%s", out)
	}
}
