package asr_test

import (
	"context"
	"testing"

	"repro/internal/asr"
	"repro/internal/fixture"
	"repro/internal/proql"
)

func TestSpansPerKind(t *testing.T) {
	sys := fixture.MustSystem(fixture.Options{})
	cases := []struct {
		kind asr.Kind
		want int
	}{
		{asr.CompletePath, 1},
		{asr.Prefix, 2},
		{asr.Suffix, 2},
		{asr.Subpath, 3},
	}
	for _, c := range cases {
		d, err := asr.NewDef(sys, c.kind, []string{"m5", "m1"})
		if err != nil {
			t.Fatalf("%v: %v", c.kind, err)
		}
		spans := d.Spans()
		if len(spans) != c.want {
			t.Errorf("%v spans = %d, want %d", c.kind, len(spans), c.want)
		}
		// Longest first.
		for i := 1; i < len(spans); i++ {
			li := spans[i-1][1] - spans[i-1][0]
			lj := spans[i][1] - spans[i][0]
			if li < lj {
				t.Errorf("%v spans not ordered by decreasing length: %v", c.kind, spans)
			}
		}
	}
}

func TestDefValidation(t *testing.T) {
	sys := fixture.MustSystem(fixture.Options{})
	if _, err := asr.NewDef(sys, asr.CompletePath, nil); err == nil {
		t.Error("empty chain should fail")
	}
	if _, err := asr.NewDef(sys, asr.CompletePath, []string{"nope"}); err == nil {
		t.Error("unknown mapping should fail")
	}
	// m4 and m2 are unconnected (m2's head N is not a source of m4).
	if _, err := asr.NewDef(sys, asr.CompletePath, []string{"m4", "m2"}); err == nil {
		t.Error("disconnected chain should fail")
	}
}

func TestIndexOverlapRejected(t *testing.T) {
	sys := fixture.MustSystem(fixture.Options{})
	ix := asr.NewIndex(sys)
	if _, err := ix.Define(asr.CompletePath, "m5", "m1"); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Define(asr.Subpath, "m1"); err == nil {
		t.Error("overlapping definition should be rejected")
	}
}

func TestParseKind(t *testing.T) {
	for name, want := range map[string]asr.Kind{
		"complete": asr.CompletePath,
		"subpath":  asr.Subpath,
		"prefix":   asr.Prefix,
		"suffix":   asr.Suffix,
	} {
		got, err := asr.ParseKind(name)
		if err != nil || got != want {
			t.Errorf("ParseKind(%s) = %v, %v", name, got, err)
		}
	}
	if _, err := asr.ParseKind("zigzag"); err == nil {
		t.Error("unknown kind should error")
	}
}

func TestMaterializeCompletePath(t *testing.T) {
	sys := fixture.MustSystem(fixture.Options{})
	ix := asr.NewIndex(sys)
	if _, err := ix.Define(asr.CompletePath, "m5", "m1"); err != nil {
		t.Fatal(err)
	}
	if err := ix.Materialize(); err != nil {
		t.Fatal(err)
	}
	// P_m5 has rows (1,cn1,7),(2,cn2,5); P_m1 has (1,cn1). Only the
	// first joins: one complete-path row.
	if got := ix.TotalRows(); got != 1 {
		t.Errorf("complete-path ASR rows = %d, want 1", got)
	}
}

func TestMaterializeSubpath(t *testing.T) {
	sys := fixture.MustSystem(fixture.Options{})
	ix := asr.NewIndex(sys)
	if _, err := ix.Define(asr.Subpath, "m5", "m1"); err != nil {
		t.Fatal(err)
	}
	if err := ix.Materialize(); err != nil {
		t.Fatal(err)
	}
	// Spans: [0,1] → 1 row; [0,0] → 2 rows (P_m5); [1,1] → 1 row (P_m1).
	if got := ix.TotalRows(); got != 4 {
		t.Errorf("subpath ASR rows = %d, want 4", got)
	}
}

// execWith runs a query with and without ASR rewriting and verifies
// identical results — the correctness contract of Section 5.2.
func execWith(t *testing.T, kind asr.Kind, query string) {
	t.Helper()
	sys := fixture.MustSystem(fixture.Options{})
	eng := proql.NewEngine(sys)
	rel := proql.Options{Backend: "relational"} // the rewrite applies to the translation only
	q := proql.MustParse(query)
	base, err := eng.Exec(context.Background(), q, rel)
	if err != nil {
		t.Fatal(err)
	}

	ix := asr.NewIndex(sys)
	if _, err := ix.Define(kind, "m5", "m1"); err != nil {
		t.Fatal(err)
	}
	if err := ix.Materialize(); err != nil {
		t.Fatal(err)
	}
	eng.RewriteRules = ix.RewriteRules
	opt, err := eng.Exec(context.Background(), q, rel)
	if err != nil {
		t.Fatal(err)
	}

	baseRefs := base.SortedRefs("x")
	optRefs := opt.SortedRefs("x")
	if len(baseRefs) != len(optRefs) {
		t.Fatalf("%v: bindings %d vs %d", kind, len(baseRefs), len(optRefs))
	}
	for i := range baseRefs {
		if baseRefs[i] != optRefs[i] {
			t.Errorf("%v: binding %d differs: %v vs %v", kind, i, baseRefs[i], optRefs[i])
		}
	}
	if base.MustGraph().NumDerivations() != opt.MustGraph().NumDerivations() {
		t.Errorf("%v: derivations %d vs %d", kind, base.MustGraph().NumDerivations(), opt.MustGraph().NumDerivations())
	}
	if base.Annotations != nil {
		for ref, v := range base.Annotations {
			ov, ok := opt.Annotations[ref]
			if !ok {
				t.Errorf("%v: missing annotation for %v", kind, ref)
				continue
			}
			if !base.Semiring.Eq(v, ov) {
				t.Errorf("%v: annotation(%v) = %v vs %v", kind, ref,
					base.Semiring.Format(v), base.Semiring.Format(ov))
			}
		}
	}
}

func TestRewritePreservesResults(t *testing.T) {
	queries := map[string]string{
		"projection": `FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x`,
		"derivability": `EVALUATE DERIVABILITY OF {
			FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x }`,
		"trust": `EVALUATE TRUST OF {
			FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x
		} ASSIGNING EACH leaf_node $y {
			CASE $y in A and $y.length >= 6 : SET false
			DEFAULT : SET true
		} ASSIGNING EACH mapping $p($z) {
			CASE $p = m4 : SET false
			DEFAULT : SET $z
		}`,
		"count": `EVALUATE COUNT OF {
			FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x }`,
	}
	for _, kind := range []asr.Kind{asr.CompletePath, asr.Subpath, asr.Prefix, asr.Suffix} {
		for name, query := range queries {
			t.Run(kind.String()+"/"+name, func(t *testing.T) {
				execWith(t, kind, query)
			})
		}
	}
}

func TestRewriteReducesJoinCount(t *testing.T) {
	sys := fixture.MustSystem(fixture.Options{})
	comp, err := proql.CompileUnfold(sys, proql.MustParse(`FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x`))
	if err != nil {
		t.Fatal(err)
	}
	ix := asr.NewIndex(sys)
	if _, err := ix.Define(asr.CompletePath, "m5", "m1"); err != nil {
		t.Fatal(err)
	}
	if err := ix.Materialize(); err != nil {
		t.Fatal(err)
	}
	rewritten := ix.RewriteRules(comp.Rules)
	// Find the m5∘m1 rule: it had P_m5 and P_m1 atoms; after rewriting
	// both are folded into one ASR atom (one join fewer, Example 5.1).
	reduced := false
	for i, r := range rewritten {
		orig := comp.Rules[i]
		if len(r.Body) < len(orig.Body) {
			reduced = true
			foundASR := false
			for _, a := range r.Body {
				if a.Rel == "ASR_m5_m1" {
					foundASR = true
				}
				if a.Rel == "P_m5" || a.Rel == "P_m1" {
					t.Errorf("provenance atom %s should have been replaced", a.Rel)
				}
			}
			if !foundASR {
				t.Error("rewritten rule lacks the ASR atom")
			}
		}
	}
	if !reduced {
		t.Error("no rule was rewritten")
	}
	// Inputs untouched.
	for _, r := range comp.Rules {
		for _, a := range r.Body {
			if a.Rel == "ASR_m5_m1" {
				t.Fatal("RewriteRules mutated its input")
			}
		}
	}
}
